package exec

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// SortConfig parameterizes a Sort operator.
type SortConfig struct {
	// Keys are the sort key columns, major to minor.
	Keys []int
	// MemoryBytes bounds the in-memory run size (the paper's 100 KB sort
	// space). Inputs below the bound sort entirely in memory.
	MemoryBytes int
	// Dedup drops tuples whose keys equal the previous tuple's keys,
	// keeping the first — the paper's duplicate elimination "during the
	// initial sort phase" (no intermediate run contains duplicate keys).
	Dedup bool
	// Combine, when non-nil, merges src into dst whenever their keys are
	// equal — early aggregation inside the sort ("whenever two tuples with
	// equal sort keys are found, they are aggregated into one tuple").
	// It must leave dst's key columns as they are: a tuple's key is encoded
	// once, when the tuple enters the sort or a merge. Dedup and Combine
	// are mutually exclusive.
	Combine func(dst, src tuple.Tuple)
	// Pool and TempDev host spilled runs. They may be nil when the caller
	// guarantees the input fits in MemoryBytes.
	Pool    *buffer.Pool
	TempDev disk.Dev
	// ReplacementSelection switches run formation from load-sort-store
	// quicksort runs to a replacement-selection heap, which produces runs
	// averaging twice the memory size on random input (and a single run on
	// nearly-sorted input), cutting merge passes.
	ReplacementSelection bool
	// Counters, when non-nil, accumulate comparison and move counts.
	Counters *Counters
}

// Sort is the external merge sort operator. Open sorts initial runs with
// quicksort and merges until one merge step remains; the final merge happens
// on demand in Next — exactly the staging the paper's footnote 2 describes.
//
// Every comparison — run formation, replacement selection, the merge heap
// and Dedup/Combine — is between normalized keys (tuple.NormKey) and is
// counted where it is made, in less or equal.
type Sort struct {
	input  Operator
	cfg    SortConfig
	schema *tuple.Schema

	// In-memory result path: mem is the sorted, reduced slot order of the
	// one run, whose tuples stay in the arena.
	mem    []int32
	memPos int
	inMem  bool

	// External path. pending is the reducing merge's held-back tuple (nil
	// when none); it lives in one of pendBuf's two buffers, alternating so
	// the tuple returned by Next survives the next pending copy. pendKey is
	// its key.
	runs    []*storage.File
	merge   *mergeState
	pending tuple.Tuple
	pendBuf [2]tuple.Tuple
	pendIdx int
	pendKey []uint64

	// Run formation copies every input tuple into arena, one width-sized
	// slot per tuple, and encodes its key into keys, kw words per slot; perm
	// is the slot order being sorted. All three are kept across runs and
	// re-Opens and hold at most MemoryBytes/width slots, so the memory grant
	// bounds the sort's heap.
	arena []byte
	keys  []uint64
	perm  []int32
	// scratch holds the shorter block of a rotation in sortSlots.
	scratch []int32

	opened bool
	runSeq int

	// peakBytes is the high-water mark of tuple bytes buffered for run
	// formation — the witness that the sort stayed within its governed
	// memory grant (see PeakMemoryBytes).
	peakBytes int

	// norm is the key encoding compiled for the sort keys at construction,
	// the paper's "functions ... compiled prior to execution and passed to
	// the processing algorithms by means of pointers" (§5.1); kw is the
	// width of one key in words.
	norm *tuple.NormKey
	kw   int
}

// NewSort sorts input according to cfg.
func NewSort(input Operator, cfg SortConfig) *Sort {
	if cfg.MemoryBytes <= 0 {
		cfg.MemoryBytes = buffer.PaperSortBytes
	}
	if cfg.Dedup && cfg.Combine != nil {
		panic("exec: Sort Dedup and Combine are mutually exclusive")
	}
	if cfg.Counters == nil {
		cfg.Counters = new(Counters) // counted, but by no one
	}
	norm := input.Schema().NormKey(cfg.Keys)
	return &Sort{
		input:  input,
		cfg:    cfg,
		schema: input.Schema(),
		norm:   norm,
		kw:     norm.Words(),
	}
}

// Schema implements Operator.
func (s *Sort) Schema() *tuple.Schema { return s.schema }

// equal reports whether two normalized keys are equal, counting one
// comparison.
func (s *Sort) equal(a, b []uint64) bool {
	s.cfg.Counters.Comp++
	return slices.Equal(a, b)
}

// less reports whether normalized key a orders before b, counting one
// comparison.
func (s *Sort) less(a, b []uint64) bool {
	s.cfg.Counters.Comp++
	return tuple.LessWords(a, b)
}

// key returns the normalized key of arena slot i.
func (s *Sort) key(i int32) []uint64 {
	o := int(i) * s.kw
	return s.keys[o : o+s.kw : o+s.kw]
}

// slotTuple returns the tuple in arena slot i.
func (s *Sort) slotTuple(i int32) tuple.Tuple {
	w := s.schema.Width()
	o := int(i) * w
	return s.arena[o : o+w : o+w]
}

// reduceSorted applies Dedup/Combine to a sorted slot order in place and
// returns the reduced prefix.
func (s *Sort) reduceSorted(perm []int32) []int32 {
	if (!s.cfg.Dedup && s.cfg.Combine == nil) || len(perm) == 0 {
		return perm
	}
	out := perm[:1]
	for _, p := range perm[1:] {
		last := out[len(out)-1]
		if s.equal(s.key(last), s.key(p)) {
			if s.cfg.Combine != nil {
				s.cfg.Combine(s.slotTuple(last), s.slotTuple(p))
			}
			continue
		}
		out = append(out, p)
	}
	return out
}

// sortRun sorts the run held in the first n arena slots and reduces it,
// returning its slot order.
func (s *Sort) sortRun(n int) []int32 {
	perm := s.perm[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	s.sortSlots(perm)
	return s.reduceSorted(perm)
}

// spillRun writes the arena slots in perm order to a new run file.
func (s *Sort) spillRun(perm []int32) error {
	if s.cfg.Pool == nil || s.cfg.TempDev == nil {
		return errors.New("exec: Sort input exceeds MemoryBytes but no temp device configured")
	}
	f := storage.NewSpillFile(s.cfg.Pool, s.cfg.TempDev, s.schema, fmt.Sprintf("sortrun-%d", s.runSeq))
	s.runSeq++
	if err := f.LoadFunc(len(perm), func(i int) tuple.Tuple { return s.slotTuple(perm[i]) }); err != nil {
		f.Drop() // not yet in s.runs; Close would never reclaim it
		return err
	}
	s.cfg.Counters.Move += int64(f.NumPages())
	s.runs = append(s.runs, f)
	return nil
}

// fanIn is how many runs one merge step can consume: one input page per run
// within the memory budget, minus an output page.
func (s *Sort) fanIn() int {
	ps := s.cfg.TempDev.PageSize()
	f := s.cfg.MemoryBytes/ps - 1
	if f < 2 {
		f = 2
	}
	return f
}

// slot copies t into arena slot i of the current run and encodes its key
// beside it. The arena and the key and order buffers grow by doubling up to
// maxTuples slots, so a small input never pays for the whole grant; growing
// copies the run's earlier slots along.
func (s *Sort) slot(i, maxTuples int, t tuple.Tuple) {
	width := s.schema.Width()
	if i >= len(s.perm) {
		n := min(max(2*len(s.perm), 64, i+1), maxTuples)
		arena := make([]byte, n*width)
		copy(arena, s.arena[:i*width])
		keys := make([]uint64, n*s.kw)
		copy(keys, s.keys[:i*s.kw])
		s.arena, s.keys, s.perm = arena, keys, make([]int32, n)
	}
	copy(s.arena[i*width:(i+1)*width], t)
	s.norm.Encode(s.key(int32(i)), t)
}

// formRuns consumes the input, sorting it in memory when it fits and
// spilling sorted runs otherwise (via quicksort batches or replacement
// selection). It reports whether anything spilled. Tuples are copied into
// the arena, which is reused for every run once the previous one spilled.
func (s *Sort) formRuns(maxTuples int) (spilled bool, err error) {
	width := s.schema.Width()
	n := 0
	for {
		t, err := s.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return spilled, err
		}
		s.slot(n, maxTuples, t)
		n++
		if b := n * width; b > s.peakBytes {
			s.peakBytes = b
		}
		if n >= maxTuples {
			if s.cfg.ReplacementSelection {
				// Hand the full buffer to the replacement-selection heap,
				// which keeps draining the input itself.
				return true, s.replacementSelection(n)
			}
			if err := s.spillRun(s.sortRun(n)); err != nil {
				return spilled, err
			}
			n = 0
			spilled = true
		}
	}
	if !spilled {
		s.mem = s.sortRun(n)
		s.memPos = 0
		s.inMem = true
		return false, nil
	}
	if n > 0 {
		if err := s.spillRun(s.sortRun(n)); err != nil {
			return true, err
		}
	}
	return true, nil
}

// rsItem is a replacement-selection heap entry: an arena slot tagged with
// the run its tuple belongs to, ordered by (run, key).
type rsItem struct {
	slot int32
	run  int
}

// replacementSelection drains the remaining input through a tournament
// heap seeded with the first n arena slots, writing runs that are on
// average twice the memory size. On entry the slots hold exactly the memory
// budget of tuples: each refill is copied into the slot of the tuple it
// replaces.
func (s *Sort) replacementSelection(n int) error {
	if s.cfg.Pool == nil || s.cfg.TempDev == nil {
		return errors.New("exec: Sort input exceeds MemoryBytes but no temp device configured")
	}
	items := make([]rsItem, n)
	for i := range items {
		items[i] = rsItem{slot: int32(i), run: 0}
	}
	less := func(a, b rsItem) bool {
		if a.run != b.run {
			return a.run < b.run
		}
		return s.less(s.key(a.slot), s.key(b.slot))
	}
	// Build the heap.
	h := items
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
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
	var out *storage.File
	var ap *storage.Appender
	// The run being written is not yet in s.runs, so Close would never
	// reclaim it: every error return must drop it here.
	defer func() {
		if ap != nil {
			ap.Close()
		}
		if out != nil {
			out.Drop()
		}
	}()
	startRun := func() error {
		out = storage.NewSpillFile(s.cfg.Pool, s.cfg.TempDev, s.schema, fmt.Sprintf("sortrun-%d", s.runSeq))
		s.runSeq++
		ap = out.NewAppender()
		return nil
	}
	closeRun := func() error {
		if ap == nil {
			return nil
		}
		a := ap
		ap = nil
		if err := a.Close(); err != nil {
			return err
		}
		s.cfg.Counters.Move += int64(out.NumPages())
		s.runs = append(s.runs, out)
		out = nil
		return nil
	}
	if err := startRun(); err != nil {
		return err
	}
	// last is a copy of the key last written to the current run: the
	// refill overwrites that tuple's slot before comparing against it.
	last := make([]uint64, s.kw)
	inputDone := false
	for len(h) > 0 {
		top := h[0]
		if top.run != curRun {
			if err := closeRun(); err != nil {
				return err
			}
			if err := startRun(); err != nil {
				return err
			}
			curRun = top.run
		}
		// Dedup/Combine within the run happen later during the merge; runs
		// here may contain duplicates across keys only in non-reducing
		// mode. For reducing sorts the merge pass handles it.
		if _, err := ap.Append(s.slotTuple(top.slot)); err != nil {
			return err
		}
		copy(last, s.key(top.slot))

		// Refill from input.
		if !inputDone {
			t, err := s.input.Next()
			if err == io.EOF {
				inputDone = true
			} else if err != nil {
				return err
			} else {
				slot := h[0].slot
				s.slot(int(slot), n, t)
				run := curRun
				if s.less(s.key(slot), last) {
					run = curRun + 1
				}
				h[0].run = run
				down(0)
				continue
			}
		}
		// No replacement: shrink the heap.
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		down(0)
	}
	return closeRun()
}

// Open implements Operator: consume the input, create sorted runs, and merge
// until at most one merge step remains.
func (s *Sort) Open() error {
	if err := s.input.Open(); err != nil {
		return err
	}
	width := s.schema.Width()
	maxTuples := s.cfg.MemoryBytes / width
	if maxTuples < 1 {
		maxTuples = 1
	}
	// Callers are not required to Close an operator whose Open failed, so
	// every error exit below this point must release the run files itself.
	fail := func(err error) error {
		for _, r := range s.runs {
			r.Drop()
		}
		s.runs = nil
		return err
	}

	spilled, err := s.formRuns(maxTuples)
	if cerr := s.input.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	if !spilled {
		s.opened = true
		return nil
	}

	// Intermediate merge passes until the final merge fits one step.
	fan := s.fanIn()
	for len(s.runs) > fan {
		batch := s.runs[:fan]
		rest := s.runs[fan:]
		merged, err := s.mergeToFile(batch)
		if err != nil {
			return fail(err)
		}
		// Hand merged to s.runs before dropping the batch, so a failed drop
		// leaves everything still reclaimable.
		s.runs = append(rest, merged)
		var dropErr error
		for _, r := range batch {
			if err := r.Drop(); err != nil && dropErr == nil {
				dropErr = err
			}
		}
		if dropErr != nil {
			return fail(dropErr)
		}
	}

	m, err := s.newMergeState(s.runs)
	if err != nil {
		return fail(err)
	}
	s.merge = m
	s.opened = true
	return nil
}

// mergeToFile merges runs into one new run file.
func (s *Sort) mergeToFile(runs []*storage.File) (*storage.File, error) {
	m, err := s.newMergeState(runs)
	if err != nil {
		return nil, err
	}
	defer m.close()
	out := storage.NewSpillFile(s.cfg.Pool, s.cfg.TempDev, s.schema, fmt.Sprintf("sortrun-%d", s.runSeq))
	s.runSeq++
	ap := out.NewAppender()
	fail := func(err error) (*storage.File, error) {
		out.Drop() // not yet in s.runs; Close would never reclaim it
		return nil, err
	}
	for {
		t, err := s.nextMerged(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			ap.Close()
			return fail(err)
		}
		if _, err := ap.Append(t); err != nil {
			ap.Close()
			return fail(err)
		}
	}
	if err := ap.Close(); err != nil {
		return fail(err)
	}
	s.cfg.Counters.Move += int64(out.NumPages())
	return out, nil
}

// mergeState is a k-way merge over run scanners with a binary heap of run
// cursors (see sortkernel.go).
type mergeState struct {
	s       *Sort
	cursors []*runCursor
	heap    []*runCursor
}

// runCursor is one run's position in a merge. cur is a copy of the run's
// current tuple and key its normalized key followed by the run's index, so
// that one key comparison orders equal keys by run. Each is in one of two
// buffers: nextRaw returns cur and key and refills the other buffers, so the
// returned tuple and key outlive the refill.
type runCursor struct {
	sc   *storage.Scanner
	cur  tuple.Tuple
	key  []uint64
	bufs [2]tuple.Tuple
	keys [2][]uint64
	flip int
}

// newRunCursor returns a cursor over sc, the index-th run of a merge, for
// keys of kw words.
func newRunCursor(sc *storage.Scanner, index, kw int) *runCursor {
	rc := &runCursor{sc: sc}
	words := make([]uint64, 2*(kw+1))
	for f := range rc.keys {
		k := words[f*(kw+1) : (f+1)*(kw+1) : (f+1)*(kw+1)]
		k[kw] = uint64(index)
		rc.keys[f] = k
	}
	rc.key = rc.keys[0]
	return rc
}

// load copies t into the cursor's free buffer, encodes its key and makes
// both current.
func (rc *runCursor) load(t tuple.Tuple, norm *tuple.NormKey) {
	rc.flip ^= 1
	rc.bufs[rc.flip] = append(rc.bufs[rc.flip][:0], t...)
	rc.cur = rc.bufs[rc.flip]
	rc.key = rc.keys[rc.flip]
	norm.Encode(rc.key, t)
}

func (s *Sort) newMergeState(runs []*storage.File) (*mergeState, error) {
	m := &mergeState{s: s}
	// Stage the head page of every run before opening the cursors: the merge
	// will touch all of them immediately, and issuing the reads together
	// overlaps their device latency. Each run cursor then keeps its own
	// read-ahead going as it advances.
	for _, r := range runs {
		r.PrefetchPages(0, 1)
	}
	for i, r := range runs {
		rc := newRunCursor(r.Scan(false), i, s.kw)
		t, _, err := rc.sc.Next()
		if err == io.EOF {
			rc.sc.Close()
			continue
		}
		if err != nil {
			m.close()
			return nil, err
		}
		rc.load(t, s.norm)
		m.cursors = append(m.cursors, rc)
		m.heap = append(m.heap, rc)
	}
	m.init()
	return m, nil
}

func (m *mergeState) close() {
	for _, c := range m.cursors {
		c.sc.Close()
	}
	m.cursors = nil
	m.heap = nil
}

// nextRaw pops the globally smallest tuple and its key from the merge heap.
func (m *mergeState) nextRaw() (tuple.Tuple, []uint64, error) {
	if len(m.heap) == 0 {
		return nil, nil, io.EOF
	}
	top := m.heap[0]
	out, key := top.cur, top.key
	t, _, err := top.sc.Next()
	if err == io.EOF {
		m.pop()
		top.sc.Close()
	} else if err != nil {
		return nil, nil, err
	} else {
		top.load(t, m.s.norm)
		m.fixTop()
	}
	return out, key, nil
}

// setPending copies t into the pending buffer the previous result does not
// occupy, and its key into pendKey.
func (s *Sort) setPending(t tuple.Tuple, key []uint64) {
	s.pendIdx ^= 1
	s.pendBuf[s.pendIdx] = append(s.pendBuf[s.pendIdx][:0], t...)
	s.pending = s.pendBuf[s.pendIdx]
	s.pendKey = append(s.pendKey[:0], key[:s.kw]...)
}

// nextMerged applies Dedup/Combine across run boundaries using a pending
// tuple.
func (s *Sort) nextMerged(m *mergeState) (tuple.Tuple, error) {
	if !s.cfg.Dedup && s.cfg.Combine == nil {
		t, _, err := m.nextRaw()
		return t, err
	}
	for {
		t, key, err := m.nextRaw()
		if err == io.EOF {
			if s.pending != nil {
				out := s.pending
				s.pending = nil
				return out, nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if s.pending == nil {
			s.setPending(t, key)
			continue
		}
		if s.equal(s.pendKey, key[:s.kw]) {
			if s.cfg.Combine != nil {
				s.cfg.Combine(s.pending, t)
			}
			continue
		}
		out := s.pending
		s.setPending(t, key)
		return out, nil
	}
}

// Next implements Operator.
func (s *Sort) Next() (tuple.Tuple, error) {
	if !s.opened {
		return nil, errNotOpen("Sort")
	}
	if s.inMem {
		if s.memPos >= len(s.mem) {
			return nil, io.EOF
		}
		t := s.slotTuple(s.mem[s.memPos])
		s.memPos++
		return t, nil
	}
	return s.nextMerged(s.merge)
}

// Close implements Operator.
func (s *Sort) Close() error {
	if s.merge != nil {
		s.merge.close()
		s.merge = nil
	}
	var firstErr error
	for _, r := range s.runs {
		if err := r.Drop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	s.mem = nil
	s.pending = nil
	s.opened = false
	return firstErr
}

// SpilledRuns reports how many run files the sort created (0 for in-memory
// sorts), for tests and diagnostics.
func (s *Sort) SpilledRuns() int { return s.runSeq }

// PeakMemoryBytes reports the high-water mark of tuple bytes the sort
// buffered in memory for run formation. An input larger than MemoryBytes
// spills instead of growing the buffer, so the peak never exceeds the
// configured budget by more than one tuple — the regression witness that a
// governed sort stays within its admission grant instead of silently
// reverting to the fixed paper sort space.
func (s *Sort) PeakMemoryBytes() int { return s.peakBytes }
