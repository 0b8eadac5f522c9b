package division

import (
	"errors"
	"io"

	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/obs"
	"repro/internal/tuple"
)

// ErrMemoryBudget is returned when the divisor and quotient tables exceed a
// configured memory budget; RecursiveHashDivision resolves it with quotient
// or divisor partitioning (§3.4).
var ErrMemoryBudget = errors.New("division: hash tables exceed memory budget")

// HashDivisionOptions tune the §3 algorithm.
type HashDivisionOptions struct {
	// EarlyEmit enables the §3.3 modification: a counter per quotient
	// candidate, compared against the divisor count before each bit is
	// set, lets the operator produce quotient tuples as soon as they
	// complete instead of waiting for the full dividend — making
	// hash-division a usable producer in a dataflow system.
	EarlyEmit bool
	// CountersOnly drops the bit maps entirely and keeps only a counter
	// per candidate (§3.3, sixth observation): correct only when the
	// dividend is duplicate-free, but cheaper in memory.
	CountersOnly bool
	// MemoryBudget, when positive, bounds the combined footprint of the
	// divisor and quotient tables in bytes; exceeding it fails the
	// operator with ErrMemoryBudget.
	MemoryBudget int
}

// HashDivisionStats describe one hash-division run, exposed for EXPLAIN
// ANALYZE-style reporting and for the overflow heuristics.
type HashDivisionStats struct {
	DivisorTuples    int64 // divisor input tuples read
	DivisorDistinct  int64 // distinct divisor tuples (duplicates eliminated on the fly)
	DividendTuples   int64 // dividend input tuples read
	DiscardedNoMatch int64 // dividend tuples with no divisor match, dropped in step 2
	Candidates       int64 // quotient candidates created
	QuotientTuples   int64 // candidates whose bit map had no zero
	PeakTableBytes   int   // high-water mark of divisor + quotient table memory
}

// HashDivision implements Figure 1. Step 1 builds the divisor table,
// numbering divisor tuples and eliminating divisor duplicates on the fly.
// Step 2 consumes the dividend: tuples without a divisor match are discarded
// immediately; matching tuples locate (or create) their quotient candidate
// and set the bit indexed by the divisor number — so dividend duplicates are
// ignored automatically. Step 3 scans the quotient table for bit maps with
// no zero bit.
type HashDivision struct {
	sp   Spec
	env  Env
	opts HashDivisionOptions

	qs    *tuple.Schema
	qCols []int

	divisorTable  *hashtab.Table
	quotientTable *hashtab.Table
	divisorCount  int64

	// Stop-and-go result path.
	results []tuple.Tuple
	pos     int

	// Early-emit path.
	streaming bool
	opened    bool

	// Profile spans for the three Figure 1 steps (nil without a tracer).
	buildSpan  *obs.Span
	absorbSpan *obs.Span
	scanQSpan  *obs.Span

	stats HashDivisionStats
}

// Stats returns the run statistics gathered so far (complete after the
// operator is drained).
func (h *HashDivision) Stats() HashDivisionStats { return h.stats }

// NewHashDivision builds the operator.
func NewHashDivision(sp Spec, env Env, opts HashDivisionOptions) *HashDivision {
	h := &HashDivision{
		sp: sp, env: env, opts: opts,
		qs: sp.QuotientSchema(), qCols: sp.QuotientCols(),
	}
	h.initSpans()
	return h
}

// initSpans wires the profile tree: the three Figure 1 steps record as phase
// spans, each input scan nested under the phase that drives it. In early-emit
// mode the dividend streams through Next, so its scan attaches directly to
// the algorithm span instead of an absorb phase.
func (h *HashDivision) initSpans() {
	parent := h.env.ProfileParent()
	if parent == nil {
		return
	}
	h.buildSpan = parent.Child("build-divisor-table", "phase")
	h.sp.Divisor = h.env.instrument(h.sp.Divisor, scanSpan(h.buildSpan, "scan(divisor)", h.sp.Divisor))
	if h.opts.EarlyEmit {
		h.sp.Dividend = h.env.instrument(h.sp.Dividend, scanSpan(parent, "scan(dividend)", h.sp.Dividend))
		return
	}
	h.absorbSpan = parent.Child("absorb-dividend", "phase")
	h.scanQSpan = parent.Child("scan-quotient-table", "phase")
	h.sp.Dividend = h.env.instrument(h.sp.Dividend, scanSpan(h.absorbSpan, "scan(dividend)", h.sp.Dividend))
}

// DivisorCount reports the number of distinct divisor tuples seen at Open.
func (h *HashDivision) DivisorCount() int64 { return h.divisorCount }

// TableMemBytes reports the combined hash table footprint, for overflow
// experiments.
func (h *HashDivision) TableMemBytes() int {
	n := 0
	if h.divisorTable != nil {
		n += h.divisorTable.MemBytes()
	}
	if h.quotientTable != nil {
		n += h.quotientTable.MemBytes()
	}
	return n
}

// Schema implements Operator.
func (h *HashDivision) Schema() *tuple.Schema { return h.qs }

func (h *HashDivision) checkBudget() error {
	if m := h.TableMemBytes(); m > h.stats.PeakTableBytes {
		h.stats.PeakTableBytes = m
	}
	if h.opts.MemoryBudget > 0 && h.TableMemBytes() > h.opts.MemoryBudget {
		return ErrMemoryBudget
	}
	return nil
}

// buildDivisorTable is step 1 of Figure 1.
func (h *HashDivision) buildDivisorTable() error {
	ss := h.sp.Divisor.Schema()
	h.divisorTable = hashtab.NewForExpected(ss, h.env.expectedDivisor(), h.env.hbs())
	h.divisorCount = 0
	if err := h.sp.Divisor.Open(); err != nil {
		return err
	}
	for {
		t, err := h.sp.Divisor.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			h.sp.Divisor.Close()
			return err
		}
		// GetOrInsert: "duplicates in the divisor can be eliminated while
		// building the divisor table".
		h.stats.DivisorTuples++
		e, created := h.divisorTable.GetOrInsert(t)
		if created {
			h.divisorTable.SetNum(e, h.divisorCount)
			h.divisorCount++
		}
		if err := h.checkBudget(); err != nil {
			h.sp.Divisor.Close()
			return err
		}
	}
	h.stats.DivisorDistinct = h.divisorCount
	return h.sp.Divisor.Close()
}

// absorb processes one dividend tuple (step 2 of Figure 1). It returns the
// completed quotient tuple in early-emit mode, or nil.
func (h *HashDivision) absorb(t tuple.Tuple) (tuple.Tuple, error) {
	ds := h.sp.Dividend.Schema()
	h.stats.DividendTuples++
	de := h.divisorTable.LookupProjected(t, ds, h.sp.DivisorCols)
	if de < 0 {
		// No matching divisor tuple: discard immediately.
		h.stats.DiscardedNoMatch++
		return nil, nil
	}
	qt := h.quotientTable
	qe, created := qt.GetOrInsertProjected(t, ds, h.qCols)
	if created {
		h.stats.Candidates++
	}
	if created && !h.opts.CountersOnly {
		if err := h.checkBudget(); err != nil {
			return nil, err
		}
	}
	if h.opts.CountersOnly {
		// Counter-only variant: requires a duplicate-free dividend.
		n := qt.AddNum(qe, 1)
		if h.opts.EarlyEmit {
			if h.env.Counters != nil {
				h.env.Counters.Comp++
			}
			if n == h.divisorCount {
				h.stats.QuotientTuples++
				return qt.Key(qe), nil
			}
		}
		return nil, nil
	}

	if h.env.Counters != nil {
		h.env.Counters.Bit++
	}
	wasSet := qt.SetBitReport(qe, int(h.divisorTable.Num(de)))
	if h.opts.EarlyEmit && !wasSet {
		// §3.3: increment the counter only for fresh bits and compare with
		// the divisor count; on equality the quotient tuple is produced
		// immediately.
		n := qt.AddNum(qe, 1)
		if h.env.Counters != nil {
			h.env.Counters.Comp++
		}
		if n == h.divisorCount {
			h.stats.QuotientTuples++
			return qt.Key(qe), nil
		}
	}
	return nil, nil
}

// Open implements Operator. In the default mode the entire dividend is
// consumed here (the algorithm "is a stop-and-go operator itself"); in
// early-emit mode only the divisor table is built and the dividend streams
// through Next.
func (h *HashDivision) Open() error {
	if err := h.sp.Validate(); err != nil {
		return err
	}
	h.stats = HashDivisionStats{}
	ph := h.buildSpan.Start(h.env.Counters)
	err := h.buildDivisorTable()
	ph.End(h.stats.DivisorDistinct)
	if err != nil {
		return err
	}
	h.quotientTable = hashtab.NewForExpected(h.qs, h.env.expectedQuotient(), h.env.hbs())
	if !h.opts.CountersOnly {
		h.quotientTable.SetBitMaps(int(h.divisorCount))
	}
	h.results = nil
	h.pos = 0
	h.streaming = h.opts.EarlyEmit

	if h.streaming {
		if err := h.sp.Dividend.Open(); err != nil {
			return err
		}
		h.opened = true
		return nil
	}

	ph = h.absorbSpan.Start(h.env.Counters)
	err = h.absorbDividend()
	ph.End(h.stats.DividendTuples)
	if err != nil {
		return err
	}

	// "free divisor table" — the divisor numbers are no longer needed.
	h.foldCounters(h.divisorTable)
	h.divisorTable = nil

	// Step 3: find the result in the quotient table.
	ph = h.scanQSpan.Start(h.env.Counters)
	qt := h.quotientTable
	err = qt.Iterate(func(e int) error {
		if h.opts.CountersOnly {
			if h.env.Counters != nil {
				h.env.Counters.Comp++
			}
			if qt.Num(e) == h.divisorCount && h.divisorCount > 0 {
				h.results = append(h.results, qt.Key(e))
				h.stats.QuotientTuples++
			}
			return nil
		}
		if h.env.Counters != nil {
			h.env.Counters.Bit += int64(qt.BitMapWords())
		}
		// Word-level population count (§3.3 "inspecting a word at a time"):
		// a candidate is in the quotient iff every divisor bit is set.
		if h.divisorCount > 0 && qt.PopCount(e) == int(h.divisorCount) {
			h.results = append(h.results, qt.Key(e))
			h.stats.QuotientTuples++
		}
		return nil
	})
	ph.End(h.stats.QuotientTuples)
	return err
}

// absorbDividend is step 2 in stop-and-go mode: the dividend is opened,
// drained, and closed here, entirely inside the absorb phase window, so the
// dividend scan's records nest under that phase. Batch-capable inputs take
// the vectorized pass — one NextBatch per page-sized batch instead of one
// interface dispatch per Transcript tuple (see absorbBatches).
func (h *HashDivision) absorbDividend() error {
	if err := h.sp.Dividend.Open(); err != nil {
		return err
	}
	h.opened = true
	if bop, ok := exec.NativeBatch(h.sp.Dividend); ok {
		if err := h.absorbBatches(bop); err != nil {
			h.sp.Dividend.Close()
			return err
		}
	} else {
		for {
			t, err := h.sp.Dividend.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				h.sp.Dividend.Close()
				return err
			}
			if _, err := h.absorb(t); err != nil {
				h.sp.Dividend.Close()
				return err
			}
		}
	}
	return h.sp.Dividend.Close()
}

// absorbBatches is the vectorized step 2: it drains the dividend through the
// batch protocol into the shared Absorber kernel, compiled once per Open
// over this run's tables. The kernel performs exactly the operations absorb
// would; its counts fold into Stats and Counters.Bit after every batch (a
// budget failure included), so both paths report identical numbers.
func (h *HashDivision) absorbBatches(bop exec.BatchOperator) error {
	ds := h.sp.Dividend.Schema()
	kern := NewAbsorber(ds, h.sp.DivisorCols, h.qCols, h.divisorTable, h.quotientTable,
		h.divisorCount, h.opts.CountersOnly, h.checkBudget)
	b := exec.NewBatch(ds, h.env.batchSize())
	defer b.Release()
	for {
		err := bop.NextBatch(b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var st AbsorbStats
		err = kern.AbsorbBatch(b, &st)
		h.stats.DividendTuples += st.Dividend
		h.stats.DiscardedNoMatch += st.Discarded
		h.stats.Candidates += st.Candidates
		if h.env.Counters != nil {
			h.env.Counters.Bit += st.Bits
		}
		if err != nil {
			return err
		}
	}
}

// NextBatch implements exec.BatchOperator: the quotient-output scan emits
// the completed candidates batch-at-a-time. In early-emit mode quotient
// tuples surface as the dividend streams, so batches are filled through the
// per-tuple path.
func (h *HashDivision) NextBatch(b *exec.Batch) error {
	if !h.opened {
		return errNotOpen("HashDivision")
	}
	if h.streaming {
		return exec.FillBatch(streamNexter{h}, b)
	}
	if h.pos >= len(h.results) {
		return io.EOF
	}
	b.Reset()
	for h.pos < len(h.results) && !b.Full() {
		b.Append(h.results[h.pos])
		h.pos++
	}
	return nil
}

// streamNexter adapts the early-emit Next loop to exec.FillBatch without
// re-entering the opened-state checks per tuple.
type streamNexter struct{ h *HashDivision }

func (s streamNexter) Schema() *tuple.Schema      { return s.h.qs }
func (s streamNexter) Open() error                { return nil }
func (s streamNexter) Close() error               { return nil }
func (s streamNexter) Next() (tuple.Tuple, error) { return s.h.Next() }

// Next implements Operator.
func (h *HashDivision) Next() (tuple.Tuple, error) {
	if !h.opened {
		return nil, errNotOpen("HashDivision")
	}
	if h.streaming {
		if h.divisorCount == 0 {
			return nil, io.EOF
		}
		for {
			t, err := h.sp.Dividend.Next()
			if err == io.EOF {
				return nil, io.EOF
			}
			if err != nil {
				return nil, err
			}
			q, err := h.absorb(t)
			if err != nil {
				return nil, err
			}
			if q != nil {
				return q, nil
			}
		}
	}
	if h.pos >= len(h.results) {
		return nil, io.EOF
	}
	t := h.results[h.pos]
	h.pos++
	return t, nil
}

func (h *HashDivision) foldCounters(t *hashtab.Table) {
	if h.env.Counters != nil && t != nil {
		st := t.Stats()
		h.env.Counters.Hash += st.Hashes
		h.env.Counters.Comp += st.Comparisons
	}
}

// Close implements Operator: "free quotient table".
func (h *HashDivision) Close() error {
	var err error
	if h.streaming && h.opened {
		err = h.sp.Dividend.Close()
	}
	h.foldCounters(h.divisorTable)
	h.foldCounters(h.quotientTable)
	h.divisorTable = nil
	h.quotientTable = nil
	h.results = nil
	h.opened = false
	h.streaming = false
	return err
}
