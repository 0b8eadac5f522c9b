package division

import (
	"io"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// Naive is the paper's first algorithm (§2.1, after Smith 1975): sort the
// dividend on (quotient attributes, divisor attributes), sort the divisor on
// all attributes, then run a merging scan in which the dividend is the outer
// and the divisor the inner relation. The divisor is consumed entirely into
// a main-memory list first, as in the paper's implementation ("it first
// consumes the entire divisor relation, building a linked list of divisor
// tuples fixed in the buffer pool"), and a quotient tuple is produced "each
// time the end of the divisor list is reached".
type Naive struct {
	sp  Spec
	env Env

	sortedDividend exec.Operator
	divisorList    []tuple.Tuple
	qs             *tuple.Schema
	qCols          []int
	divisorCols    []int // the divisor's AllColumns, the merge's inner key

	candidate tuple.Tuple // current quotient candidate (projected)
	pos       int         // position in divisor list
	failed    bool        // candidate already failed or emitted
	preSorted bool        // inputs arrive sorted (index scans); skip sorting
	opened    bool

	// Profile spans (nil without a tracer). The sorts are rebuilt on every
	// Open, so their spans are memoized here and accumulate across re-opens.
	sortDividendSpan *obs.Span
	sortDivisorSpan  *obs.Span
}

// NewNaive builds the operator; it sorts both inputs itself (with duplicate
// elimination folded into the sorts unless env.AssumeUniqueInputs).
func NewNaive(sp Spec, env Env) *Naive {
	n := &Naive{sp: sp, env: env, qs: sp.QuotientSchema(), qCols: sp.QuotientCols()}
	n.initSpans()
	return n
}

// NewNaivePreSorted builds naive division over inputs that already arrive in
// the required order — the dividend sorted on (quotient attributes, divisor
// attributes) and the divisor sorted on all attributes, e.g. covering
// B+-tree index scans. The sorts are skipped entirely; adjacent duplicates
// in either input are tolerated.
func NewNaivePreSorted(sp Spec, env Env) *Naive {
	n := &Naive{sp: sp, env: env, qs: sp.QuotientSchema(), qCols: sp.QuotientCols(), preSorted: true}
	n.initSpans()
	return n
}

// initSpans wires the profile tree: the input scans record under the sorts
// that consume them (or directly under the algorithm span when pre-sorted),
// so each level's self cost is its exclusive share.
func (n *Naive) initSpans() {
	parent := n.env.ProfileParent()
	if parent == nil {
		return
	}
	if n.preSorted {
		n.sp.Dividend = n.env.instrument(n.sp.Dividend, scanSpan(parent, "scan(dividend)", n.sp.Dividend))
		n.sp.Divisor = n.env.instrument(n.sp.Divisor, scanSpan(parent, "scan(divisor)", n.sp.Divisor))
		return
	}
	n.sortDivisorSpan = parent.Child("sort(divisor)", "Sort")
	n.sortDividendSpan = parent.Child("sort(dividend)", "Sort")
	n.sp.Divisor = n.env.instrument(n.sp.Divisor, scanSpan(n.sortDivisorSpan, "scan(divisor)", n.sp.Divisor))
	n.sp.Dividend = n.env.instrument(n.sp.Dividend, scanSpan(n.sortDividendSpan, "scan(dividend)", n.sp.Dividend))
}

// Schema implements Operator.
func (n *Naive) Schema() *tuple.Schema { return n.qs }

// Open implements Operator: sorts the divisor into memory and prepares the
// sorted dividend stream.
func (n *Naive) Open() error {
	ss := n.sp.Divisor.Schema()
	n.divisorCols = ss.AllColumns()

	if n.preSorted {
		divisors, err := exec.Collect(n.sp.Divisor)
		if err != nil {
			return err
		}
		// Drop adjacent duplicates (the input is sorted, so adjacency is
		// enough).
		n.divisorList = n.divisorList[:0]
		for _, d := range divisors {
			if len(n.divisorList) > 0 {
				n.comp()
				if ss.CompareAll(n.divisorList[len(n.divisorList)-1], d) == 0 {
					continue
				}
			}
			n.divisorList = append(n.divisorList, d)
		}
		n.sortedDividend = n.sp.Dividend
		if err := n.sortedDividend.Open(); err != nil {
			return err
		}
		n.candidate = nil
		n.pos = 0
		n.failed = false
		n.opened = true
		return nil
	}

	divisorSort := n.env.instrument(exec.NewSort(n.sp.Divisor, exec.SortConfig{
		Keys:        n.divisorCols,
		Dedup:       !n.env.AssumeUniqueInputs,
		MemoryBytes: n.env.sortBytes(),
		Pool:        n.env.Pool,
		TempDev:     n.env.TempDev,
		Counters:    n.env.Counters,
	}), n.sortDivisorSpan)
	divisors, err := exec.Collect(divisorSort)
	if err != nil {
		return err
	}
	n.divisorList = divisors

	// Dividend sorted on quotient attributes major, divisor attributes
	// minor; duplicate elimination over the full key happens in the sort.
	keys := append(append([]int(nil), n.qCols...), n.sp.DivisorCols...)
	n.sortedDividend = n.env.instrument(exec.NewSort(n.sp.Dividend, exec.SortConfig{
		Keys:        keys,
		Dedup:       !n.env.AssumeUniqueInputs,
		MemoryBytes: n.env.sortBytes(),
		Pool:        n.env.Pool,
		TempDev:     n.env.TempDev,
		Counters:    n.env.Counters,
	}), n.sortDividendSpan)
	if err := n.sortedDividend.Open(); err != nil {
		return err
	}
	n.candidate = nil
	n.pos = 0
	n.failed = false
	n.opened = true
	return nil
}

func (n *Naive) comp() {
	if n.env.Counters != nil {
		n.env.Counters.Comp++
	}
}

// Next implements Operator: the merging scan.
func (n *Naive) Next() (tuple.Tuple, error) {
	if !n.opened {
		return nil, errNotOpen("Naive")
	}
	if len(n.divisorList) == 0 {
		return nil, io.EOF
	}
	ds := n.sp.Dividend.Schema()
	ss := n.sp.Divisor.Schema()
	for {
		t, err := n.sortedDividend.Next()
		if err == io.EOF {
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}

		// New candidate?
		isNew := n.candidate == nil
		if !isNew {
			n.comp()
			isNew = !ds.EqualProjected(t, n.qCols, n.candidate)
		}
		if isNew {
			n.candidate = ds.ProjectTuple(t, n.qCols)
			n.pos = 0
			n.failed = false
		}
		if n.failed {
			continue
		}

		// Advance the divisor scan: compare this dividend tuple's divisor
		// attributes against the current divisor list position.
		for n.pos < len(n.divisorList) {
			n.comp()
			c := tuple.CompareCross(ds, t, n.sp.DivisorCols,
				ss, n.divisorList[n.pos], n.divisorCols)
			if c == 0 {
				n.pos++
				if n.pos == len(n.divisorList) {
					// End of the divisor list: produce the candidate.
					n.failed = true // ignore the candidate's remaining tuples
					return n.candidate, nil
				}
				break
			}
			if c < 0 {
				// Dividend tuple matches no divisor tuple (e.g. a physics
				// course): skip the tuple, candidate stays alive.
				break
			}
			// c > 0: divisor tuple at pos is missing for this candidate.
			n.failed = true
			break
		}
	}
}

// Close implements Operator.
func (n *Naive) Close() error {
	n.opened = false
	n.divisorList = nil
	n.candidate = nil
	if n.sortedDividend != nil {
		err := n.sortedDividend.Close()
		n.sortedDividend = nil
		return err
	}
	return nil
}
