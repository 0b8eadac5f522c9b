package hashtab

// The bucket-chained table this package used before the flat layout: every
// element a heap object on a singly linked chain, every probe a chain walk
// that counts one comparison per visited element. It is kept, unexported,
// as the reference the flat table must match operation for operation —
// returned payloads, Stats after every operation and Iterate order (see
// exact_test.go).

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitmap"
	"repro/internal/tuple"
)

// elementOverheadBytes approximates the per-element bookkeeping (next
// pointer, numbers, slice header) for memory-budget accounting.
const refElementOverheadBytes = 48

// Element is one chain entry. Exactly one of the payload fields is used by
// any given algorithm.
type refElement struct {
	next  *refElement
	Tuple tuple.Tuple    // the stored key tuple (owned copy)
	Num   int64          // divisor number, counter, or grouped count
	Bits  *bitmap.Bitmap // quotient candidate bit map (hash-division)
}

// Table is a bucket-chained hash table over fixed-width tuples.
type refTable struct {
	schema   *tuple.Schema
	buckets  []*refElement
	n        int
	memBytes int
	stats    Stats
	maxLoad  float64 // grow when exceeded; 0 = never grow
}

// New creates a table for key tuples of the given schema with nBuckets
// chains. nBuckets is rounded up to at least 1.
func newRef(schema *tuple.Schema, nBuckets int) *refTable {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &refTable{
		schema:  schema,
		buckets: make([]*refElement, nBuckets),
		maxLoad: 4,
	}
}

// NewForExpected sizes the table so the average bucket holds hbs tuples at
// the expected cardinality, the paper's "average size of each hash bucket"
// parameter (hbs = 2 in §4.6).
func newRefForExpected(schema *tuple.Schema, expected int, hbs float64) *refTable {
	if hbs <= 0 {
		hbs = 2
	}
	return newRef(schema, int(float64(expected)/hbs)+1)
}

// NewWithCapacity pre-sizes the table to hold capacity elements at the
// default bucket size without ever growing: batch build loops use it when
// the input cardinality is known from workload statistics, so the rehash
// work grow() would charge never happens. The table still grows past ~2×
// the stated capacity if the estimate proves wrong.
func newRefWithCapacity(schema *tuple.Schema, capacity int) *refTable {
	if capacity < 0 {
		capacity = 0
	}
	return newRef(schema, capacity/2+1)
}

// SetMaxLoad configures automatic growth: the table doubles its bucket count
// whenever elements/buckets exceeds maxLoad. Zero disables growth (fixed
// geometry, as in the paper's experiments).
func (t *refTable) SetMaxLoad(maxLoad float64) { t.maxLoad = maxLoad }

// Schema returns the stored tuples' layout.
func (t *refTable) Schema() *tuple.Schema { return t.schema }

// Len returns the number of stored elements.
func (t *refTable) Len() int { return t.n }

// NumBuckets returns the bucket count.
func (t *refTable) NumBuckets() int { return len(t.buckets) }

// LoadFactor returns elements per bucket.
func (t *refTable) LoadFactor() float64 { return float64(t.n) / float64(len(t.buckets)) }

// Stats returns the accumulated work counters.
func (t *refTable) Stats() Stats { return t.stats }

// MemBytes approximates the table's heap footprint: buckets, elements, key
// copies, and any attached bit maps. Hash table overflow handling keys off
// this number.
func (t *refTable) MemBytes() int {
	return t.memBytes + len(t.buckets)*8
}

func (t *refTable) bucketFor(h uint64) int {
	// Multiply-shift range reduction (Lemire 2016): maps the 64-bit hash
	// uniformly onto [0, nbuckets) with one multiply-high instead of the
	// ~25-cycle 64-bit modulo. bucketFor sits on the probe hot path, twice
	// per dividend tuple in hash-division step 2.
	hi, _ := bits.Mul64(h, uint64(len(t.buckets)))
	return int(hi)
}

// Lookup finds the element whose stored tuple equals key (all columns), or
// nil.
func (t *refTable) Lookup(key tuple.Tuple) *refElement {
	t.stats.Hashes++
	h := tuple.HashBytes(key)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if t.schema.CompareAll(e.Tuple, key) == 0 {
			return e
		}
	}
	return nil
}

// LookupProjected matches the cols projection of src (laid out by srcSchema)
// against the stored tuples without materializing the projection — the inner
// loop of hash-division step 2.
func (t *refTable) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) *refElement {
	t.stats.Hashes++
	h := srcSchema.Hash(src, cols)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if srcSchema.EqualProjected(src, cols, e.Tuple) {
			return e
		}
	}
	return nil
}

// LookupPre is LookupProjected with the hash value and equality predicate
// supplied by the caller: batch kernels compile them once (tuple.HashFunc,
// tuple.EqualProjectedFunc) and hoist them out of the per-tuple loop. The
// hash must equal the schema hash of src's projection and eq must match
// EqualProjected, so Stats and the quotient are byte-identical to the
// generic path.
func (t *refTable) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool) *refElement {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if eq(src, e.Tuple) {
			return e
		}
	}
	return nil
}

// GetOrInsertPre is GetOrInsertProjected with caller-compiled hash and
// equality (see LookupPre); project materializes the stored key when an
// insert happens (rare relative to probes, so it stays a plain callback).
func (t *refTable) GetOrInsertPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, project func(src tuple.Tuple) tuple.Tuple) (e *refElement, created bool) {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if eq(src, e.Tuple) {
			return e, false
		}
	}
	return t.insertHashed(h, project(src)), true
}

// LookupU64 is LookupProjected specialized to a single 8-byte key column:
// key is the little-endian word of the projection and h its schema hash
// (tuple.HashUint64LE of key). Every call is concrete — no closure
// indirection in the chain walk — while Stats stay identical to the generic
// probe. The batch hash-division kernel uses it when both the divisor and
// quotient projections are single 8-byte columns.
func (t *refTable) LookupU64(h, key uint64) *refElement {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e
		}
	}
	return nil
}

// GetOrInsertU64 is GetOrInsertProjected specialized like LookupU64; the
// stored key is the eight little-endian bytes of key.
func (t *refTable) GetOrInsertU64(h, key uint64) (e *refElement, created bool) {
	t.stats.Hashes++
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e, false
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], key)
	return t.insertHashed(h, tuple.Tuple(buf[:])), true
}

func (t *refTable) insertHashed(h uint64, key tuple.Tuple) *refElement {
	if t.maxLoad > 0 && float64(t.n+1) > t.maxLoad*float64(len(t.buckets)) {
		t.grow()
	}
	b := t.bucketFor(h)
	e := &refElement{next: t.buckets[b], Tuple: key.Clone()}
	t.buckets[b] = e
	t.n++
	t.memBytes += len(key) + refElementOverheadBytes
	return e
}

// GetOrInsert returns the element matching key, inserting a fresh one when
// absent. created reports whether an insertion happened. This is the
// "eliminate duplicates in the divisor on the fly" path.
func (t *refTable) GetOrInsert(key tuple.Tuple) (e *refElement, created bool) {
	t.stats.Hashes++
	h := tuple.HashBytes(key)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if t.schema.CompareAll(e.Tuple, key) == 0 {
			return e, false
		}
	}
	return t.insertHashed(h, key), true
}

// GetOrInsertProjected is GetOrInsert keyed by the cols projection of src;
// the stored tuple is the materialized projection. This is the quotient-table
// probe of hash-division step 2.
func (t *refTable) GetOrInsertProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) (e *refElement, created bool) {
	t.stats.Hashes++
	h := srcSchema.Hash(src, cols)
	for e := t.buckets[t.bucketFor(h)]; e != nil; e = e.next {
		t.stats.Comparisons++
		if srcSchema.EqualProjected(src, cols, e.Tuple) {
			return e, false
		}
	}
	return t.insertHashed(h, srcSchema.ProjectTuple(src, cols)), true
}

// Frozen is an immutable, concurrently probeable view of a Table. Every
// Table probe mutates the table's Stats, so sharing a *refTable across
// goroutines is a data race even for pure lookups; Freeze separates the two
// concerns. A Frozen view carries no mutable state — each probe takes the
// caller's own *Stats accumulator — so any number of goroutines may probe it
// simultaneously. The parallel shared-table absorb path (DESIGN.md §9) uses
// this for the divisor table, which is immutable after its build phase.
type refFrozen struct {
	schema  *tuple.Schema
	buckets []*refElement
}

// Freeze returns a read-only concurrent view of the table's current
// contents. The table must not be mutated afterwards (no inserts, no Reset);
// probes on the Table itself remain legal but still race with Frozen probes
// only through Stats, which Frozen does not touch.
func (t *refTable) Freeze() *refFrozen {
	return &refFrozen{schema: t.schema, buckets: t.buckets}
}

func (f *refFrozen) bucketFor(h uint64) int {
	hi, _ := bits.Mul64(h, uint64(len(f.buckets)))
	return int(hi)
}

// Lookup is Table.Lookup against the frozen view; st accumulates the probe
// work and must be private to the calling goroutine.
func (f *refFrozen) Lookup(key tuple.Tuple, st *Stats) *refElement {
	st.Hashes++
	h := tuple.HashBytes(key)
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if f.schema.CompareAll(e.Tuple, key) == 0 {
			return e
		}
	}
	return nil
}

// LookupProjected is Table.LookupProjected against the frozen view.
func (f *refFrozen) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int, st *Stats) *refElement {
	st.Hashes++
	h := srcSchema.Hash(src, cols)
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if srcSchema.EqualProjected(src, cols, e.Tuple) {
			return e
		}
	}
	return nil
}

// LookupPre is Table.LookupPre against the frozen view: caller-compiled hash
// and equality, caller-owned stats.
func (f *refFrozen) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, st *Stats) *refElement {
	st.Hashes++
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if eq(src, e.Tuple) {
			return e
		}
	}
	return nil
}

// LookupU64 is Table.LookupU64 against the frozen view.
func (f *refFrozen) LookupU64(h, key uint64, st *Stats) *refElement {
	st.Hashes++
	for e := f.buckets[f.bucketFor(h)]; e != nil; e = e.next {
		st.Comparisons++
		if binary.LittleEndian.Uint64(e.Tuple) == key {
			return e
		}
	}
	return nil
}

func (t *refTable) grow() {
	old := t.buckets
	t.buckets = make([]*refElement, 2*len(old))
	var moved int64
	for _, chain := range old {
		for e := chain; e != nil; {
			next := e.next
			b := t.bucketFor(tuple.HashBytes(e.Tuple))
			e.next = t.buckets[b]
			t.buckets[b] = e
			e = next
			moved++
		}
	}
	// Each move recomputed a hash; charge it so cost counters reflect the
	// rehash work.
	t.stats.Hashes += moved
	t.stats.Rehashed += moved
}

// AddMemBytes records payload memory attached to elements (bit maps), so
// MemBytes reflects the true footprint.
func (t *refTable) AddMemBytes(n int) { t.memBytes += n }

// Iterate calls fn for every element in bucket order (the "scan all buckets"
// of hash-division step 3). Iteration stops at the first error.
func (t *refTable) Iterate(fn func(*refElement) error) error {
	for _, chain := range t.buckets {
		for e := chain; e != nil; e = e.next {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset empties the table, keeping the bucket array.
func (t *refTable) Reset() {
	for i := range t.buckets {
		t.buckets[i] = nil
	}
	t.n = 0
	t.memBytes = 0
}
