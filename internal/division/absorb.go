package division

import (
	"encoding/binary"

	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// probeKernels are step 2's hash and equality functions compiled once per
// dividend schema — §5.1's "compiled prior to execution and passed ... by
// means of pointers". The common Table 4 shape, divisor and quotient
// projections each a single 8-byte column, selects concrete word-key probes
// at divOff/quotOff (fastU64); anything else gets closure kernels from
// tuple.HashFunc and tuple.EqualProjectedFunc, bit-identical to Schema.Hash
// and Schema.EqualProjected.
type probeKernels struct {
	fastU64  bool
	divOff   int
	quotOff  int
	divHash  func(tuple.Tuple) uint64
	divEq    func(src, stored tuple.Tuple) bool
	quotHash func(tuple.Tuple) uint64
	quotEq   func(src, stored tuple.Tuple) bool
}

func compileProbes(ds *tuple.Schema, divisorCols, qCols []int) probeKernels {
	if len(divisorCols) == 1 && ds.Field(divisorCols[0]).Width == 8 &&
		len(qCols) == 1 && ds.Field(qCols[0]).Width == 8 {
		return probeKernels{fastU64: true, divOff: ds.Offset(divisorCols[0]), quotOff: ds.Offset(qCols[0])}
	}
	return probeKernels{
		divHash:  ds.HashFunc(divisorCols),
		divEq:    ds.EqualProjectedFunc(divisorCols),
		quotHash: ds.HashFunc(qCols),
		quotEq:   ds.EqualProjectedFunc(qCols),
	}
}

// AbsorbStats count an Absorber's step-2 work. AbsorbBatch adds to them, so
// one value can accumulate over many batches or be folded per batch.
type AbsorbStats struct {
	Dividend   int64 // dividend tuples absorbed
	Discarded  int64 // tuples without a divisor match, dropped
	Candidates int64 // quotient candidates created
	Bits       int64 // bit-map sets (the cost model's Bit unit)
}

func (st *AbsorbStats) fold(discarded, candidates, bits int64) {
	st.Discarded += discarded
	st.Candidates += candidates
	st.Bits += bits
}

// Absorber is hash-division step 2 (Figure 1) over a batch: probe the
// divisor table, discard tuples without a match, find or create the quotient
// candidate and set the bit numbered by the divisor tuple. It is the one
// absorb loop of every hash-division site — the serial operator, the morsel
// and coordinator workers of internal/parallel, and the netexchange worker —
// whether the site's divisor table is the full replica (quotient
// partitioning) or one cluster of it (divisor partitioning).
//
// An Absorber mutates only its two tables; sites on separate goroutines
// each compile their own, so it needs no synchronization.
type Absorber struct {
	divisor      *hashtab.Table
	quotient     *hashtab.Table
	countersOnly bool
	onCandidate  func() error
	project      func(dst, src tuple.Tuple)
	probeKernels
}

// NewAbsorber compiles step 2 for dividend schema ds. divisor holds the
// numbered divisor tuples (divisorCount distinct ones) and quotient, still
// empty, receives candidates keyed by the qCols projection, each with a
// divisorCount-bit map. With countersOnly a candidate keeps a counter
// instead of a bit map (§3.3, duplicate-free dividends only). onCandidate,
// when set, runs after each new candidate's bit map is accounted to the
// quotient table; its error (a memory budget) stops the batch.
func NewAbsorber(ds *tuple.Schema, divisorCols, qCols []int, divisor, quotient *hashtab.Table,
	divisorCount int64, countersOnly bool, onCandidate func() error) *Absorber {
	if !countersOnly {
		quotient.SetBitMaps(int(divisorCount))
	}
	return &Absorber{
		divisor:      divisor,
		quotient:     quotient,
		countersOnly: countersOnly,
		onCandidate:  onCandidate,
		project:      func(dst, src tuple.Tuple) { ds.ProjectInto(dst, src, qCols) },
		probeKernels: compileProbes(ds, divisorCols, qCols),
	}
}

// AbsorbBatch absorbs every tuple of b, adding its counts to st (also on
// error). The batch may alias foreign memory — a pinned page or a frame
// read buffer — since new candidates store owned projection copies.
func (a *Absorber) AbsorbBatch(b *exec.Batch, st *AbsorbStats) error {
	if a.fastU64 {
		return a.absorbBatchU64(b, st)
	}
	divisorTable, quotientTable := a.divisor, a.quotient
	countersOnly := a.countersOnly
	n := b.Len()
	st.Dividend += int64(n)
	var discarded, candidates, bits int64
	for i := 0; i < n; i++ {
		t := b.Tuple(i)
		de := divisorTable.LookupPre(a.divHash(t), t, a.divEq)
		if de < 0 {
			discarded++
			continue
		}
		qe, created := quotientTable.GetOrInsertPre(a.quotHash(t), t, a.quotEq, a.project)
		if created {
			candidates++
			if err := a.newCandidate(); err != nil {
				st.fold(discarded, candidates, bits)
				return err
			}
		}
		if countersOnly {
			quotientTable.AddNum(qe, 1)
			continue
		}
		bits++
		quotientTable.SetBit(qe, int(divisorTable.Num(de)))
	}
	st.fold(discarded, candidates, bits)
	return nil
}

// absorbBatchU64 is AbsorbBatch for the single-8-byte-column shape: keys
// load as words, hashes are the unrolled tuple.HashUint64LE, and the probes
// (hashtab.LookupU64 / GetOrInsertU64) compare words — no closure or
// interface call in the loop. Each group of tuples is hashed in a pass of
// its own before it is probed: a hash is a chain of eight dependent
// multiplies, and apart from the probes the chains of consecutive tuples
// overlap. Probes, statistics and counts are identical to the closure path.
func (a *Absorber) absorbBatchU64(b *exec.Batch, st *AbsorbStats) error {
	divisorTable, quotientTable := a.divisor, a.quotient
	countersOnly := a.countersOnly
	divOff, quotOff := a.divOff, a.quotOff
	n := b.Len()
	st.Dividend += int64(n)
	raw, w := b.Raw(), b.Schema().Width()
	var discarded, candidates, bits int64
	var dh, qh [hashGroup]uint64
	for lo := 0; lo < n; lo += hashGroup {
		group := raw[lo*w : min(n, lo+hashGroup)*w]
		for i := 0; i*w < len(group); i++ {
			t := group[i*w:]
			dh[i] = tuple.HashUint64LE(binary.LittleEndian.Uint64(t[divOff:]))
			qh[i] = tuple.HashUint64LE(binary.LittleEndian.Uint64(t[quotOff:]))
		}
		for i := 0; i*w < len(group); i++ {
			t := group[i*w:]
			de := divisorTable.LookupU64(dh[i], binary.LittleEndian.Uint64(t[divOff:]))
			if de < 0 {
				discarded++
				continue
			}
			qe, created := quotientTable.GetOrInsertU64(qh[i], binary.LittleEndian.Uint64(t[quotOff:]))
			if created {
				candidates++
				if err := a.newCandidate(); err != nil {
					st.fold(discarded, candidates, bits)
					return err
				}
			}
			if countersOnly {
				quotientTable.AddNum(qe, 1)
				continue
			}
			bits++
			quotientTable.SetBit(qe, int(divisorTable.Num(de)))
		}
	}
	st.fold(discarded, candidates, bits)
	return nil
}

// hashGroup is how many tuples absorbBatchU64 hashes ahead of probing.
const hashGroup = 128

// newCandidate runs the onCandidate hook for a fresh candidate, whose bit
// map the quotient table has already allocated and accounted.
func (a *Absorber) newCandidate() error {
	if a.countersOnly {
		return nil
	}
	if a.onCandidate != nil {
		return a.onCandidate()
	}
	return nil
}
