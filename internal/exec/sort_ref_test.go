package exec

import (
	"container/heap"
	"io"

	"repro/internal/tuple"
)

// refExtSort is the external sort as it was before normalized keys: run
// formation sorts tuple headers with a library stable sort and a counted
// CompareFunc, replacement selection keeps a heap of tuples, and the merge
// runs container/heap over run cursors. Runs live in memory rather than in
// run files, which changes no comparison. The tests hold Sort to it
// comparison for comparison.
type refExtSort struct {
	cfg      SortConfig
	width    int
	pageSize int
	cmp      func(a, b tuple.Tuple) int
	stable   func(ts []tuple.Tuple, cmp func(a, b tuple.Tuple) int)
	comps    int64
	runs     [][]tuple.Tuple
}

// refExternalSort sorts in as a Sort with cfg would, with stable as the run
// sorter and fan-in taken from pageSize, and returns its output and its
// comparison count.
func refExternalSort(s *tuple.Schema, in []tuple.Tuple, cfg SortConfig, pageSize int,
	stable func(ts []tuple.Tuple, cmp func(a, b tuple.Tuple) int)) ([]tuple.Tuple, int64) {
	r := &refExtSort{cfg: cfg, width: s.Width(), pageSize: pageSize, cmp: s.CompareFunc(cfg.Keys), stable: stable}
	maxTuples := max(cfg.MemoryBytes/r.width, 1)
	var buf []tuple.Tuple
	spilled := false
	for i := 0; i < len(in); i++ {
		buf = append(buf, in[i].Clone())
		if len(buf) >= maxTuples {
			if cfg.ReplacementSelection {
				r.replacementSelection(buf, in[i+1:])
				return r.mergeAll(), r.comps
			}
			r.runs = append(r.runs, r.sortRun(buf))
			buf = nil
			spilled = true
		}
	}
	if !spilled {
		return r.sortRun(buf), r.comps
	}
	if len(buf) > 0 {
		r.runs = append(r.runs, r.sortRun(buf))
	}
	return r.mergeAll(), r.comps
}

func (r *refExtSort) compare(a, b tuple.Tuple) int {
	r.comps++
	return r.cmp(a, b)
}

func (r *refExtSort) reducing() bool { return r.cfg.Dedup || r.cfg.Combine != nil }

func (r *refExtSort) sortRun(ts []tuple.Tuple) []tuple.Tuple {
	r.stable(ts, r.compare)
	if !r.reducing() || len(ts) == 0 {
		return ts
	}
	out := ts[:1]
	for _, t := range ts[1:] {
		last := out[len(out)-1]
		if r.compare(last, t) == 0 {
			if r.cfg.Combine != nil {
				r.cfg.Combine(last, t)
			}
			continue
		}
		out = append(out, t)
	}
	return out
}

type refRSItem struct {
	t   tuple.Tuple
	run int
}

func (r *refExtSort) replacementSelection(buf, rest []tuple.Tuple) {
	h := make([]refRSItem, len(buf))
	for i, t := range buf {
		h[i] = refRSItem{t: t}
	}
	less := func(a, b refRSItem) bool {
		if a.run != b.run {
			return a.run < b.run
		}
		return r.compare(a.t, b.t) < 0
	}
	down := func(i int) {
		for {
			l, rt := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if rt < len(h) && less(h[rt], h[m]) {
				m = rt
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	curRun := 0
	var run []tuple.Tuple
	for len(h) > 0 {
		top := h[0]
		if top.run != curRun {
			r.runs = append(r.runs, run)
			run, curRun = nil, top.run
		}
		last := top.t.Clone()
		run = append(run, last)
		if len(rest) > 0 {
			copy(h[0].t, rest[0])
			rest = rest[1:]
			h[0].run = curRun
			if r.compare(h[0].t, last) < 0 {
				h[0].run = curRun + 1
			}
			down(0)
			continue
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
	}
	r.runs = append(r.runs, run)
}

// mergeAll merges fan-in runs at a time into a new last run until one
// merge step remains, then merges that.
func (r *refExtSort) mergeAll() []tuple.Tuple {
	fan := max(r.cfg.MemoryBytes/r.pageSize-1, 2)
	for len(r.runs) > fan {
		merged := r.merge(r.runs[:fan])
		r.runs = append(r.runs[fan:], merged)
	}
	return r.merge(r.runs)
}

type refCursor struct {
	run   []tuple.Tuple
	index int
}

type refCursorHeap struct {
	r    *refExtSort
	curs []*refCursor
}

func (h refCursorHeap) Len() int { return len(h.curs) }
func (h refCursorHeap) Less(i, j int) bool {
	if c := h.r.compare(h.curs[i].run[0], h.curs[j].run[0]); c != 0 {
		return c < 0
	}
	return h.curs[i].index < h.curs[j].index
}
func (h refCursorHeap) Swap(i, j int) { h.curs[i], h.curs[j] = h.curs[j], h.curs[i] }
func (h *refCursorHeap) Push(x any)   { h.curs = append(h.curs, x.(*refCursor)) }
func (h *refCursorHeap) Pop() any {
	x := h.curs[len(h.curs)-1]
	h.curs = h.curs[:len(h.curs)-1]
	return x
}

// merge is one merge step, with Dedup/Combine across runs through a
// pending tuple.
func (r *refExtSort) merge(runs [][]tuple.Tuple) []tuple.Tuple {
	h := &refCursorHeap{r: r}
	for i, run := range runs {
		if len(run) > 0 {
			h.curs = append(h.curs, &refCursor{run: run, index: i})
		}
	}
	heap.Init(h)
	next := func() (tuple.Tuple, error) {
		if h.Len() == 0 {
			return nil, io.EOF
		}
		top := h.curs[0]
		t := top.run[0]
		if top.run = top.run[1:]; len(top.run) == 0 {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
		return t, nil
	}
	var out []tuple.Tuple
	var pending tuple.Tuple
	for {
		t, err := next()
		if err == io.EOF {
			break
		}
		switch {
		case !r.reducing():
			out = append(out, t.Clone())
		case pending == nil:
			pending = t.Clone()
		case r.compare(pending, t) == 0:
			if r.cfg.Combine != nil {
				r.cfg.Combine(pending, t)
			}
		default:
			out = append(out, pending)
			pending = t.Clone()
		}
	}
	if pending != nil {
		out = append(out, pending)
	}
	return out
}
