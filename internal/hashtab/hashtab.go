// Package hashtab implements the hash tables used by the hash-based
// algorithms. Following the paper's implementation notes (§5.1), conflict
// resolution is bucket chaining and each element carries the tuple plus the
// per-algorithm payload: the divisor number for divisor tables, the bit map
// (or counter) for quotient tables, and a grouped count for aggregation
// tables.
//
// The table counts hash calculations and tuple comparisons so callers can
// report deterministic CPU costs in Table 1 units. The §5.1 chains are that
// cost model, and only that: each bucket keeps its chain length and each
// element its position in the chain, while probes find their element through
// an open-addressing index. A chain walk would compare the probe against the
// elements from the head (the newest) down to its match, or against the
// whole chain on a miss. Every table is a set — keys are unique — so that
// walk's count follows from the bucket's length and the match's position
// alone, and each probe charges exactly what the walk would have.
//
// Storage is flat: element i is a number, its key lives in one arena, its
// counter in a parallel slice and its bit map in one word slab, so a table
// allocates a few slices, grown geometrically, and no per-element objects.
package hashtab

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/tuple"
)

// elementOverheadBytes is the per-element bookkeeping MemBytes charges. It
// is the budget model, fixed at the chained layout's size (next pointer,
// numbers, slice header), so memory budgets decide the same way whatever
// the physical layout.
const elementOverheadBytes = 48

// Stats count the work the table performed, in cost-model units. Rehash
// moves during growth are real work too: every element moved recomputes its
// hash, so grow() feeds Hashes (and Rehashed, so the rehash share stays
// visible) rather than silently omitting it from the cost accounting.
type Stats struct {
	Hashes      int64 // hash value calculations (unit Hash), rehashes included
	Comparisons int64 // tuple comparisons a chain walk makes (unit Comp)
	Rehashed    int64 // element moves performed by grow() rehashes
}

// bucket is one §5.1 chain. Element numbers are stored plus one, so the
// zero value is an empty chain.
type bucket struct {
	head int32 // newest element + 1; 0 when empty
	n    int32 // chain length
}

const (
	// fib spreads a hash over the index (Fibonacci hashing): the index
	// slot and tag come from the product's high bits.
	fib = 0x9E3779B97F4A7C15
	// minCap and maxFirstCap bound the first allocation, which is sized
	// from the constructor's expected cardinality.
	minCap      = 8
	maxFirstCap = 4096
)

// emptySlots is the index of a table without elements: one empty slot, so
// probes miss without a special case. Nothing ever writes it — the first
// insert allocates the table's own index.
var emptySlots = []uint64{0}

// Table is a hash table over fixed-width key tuples. Probes return element
// numbers (−1 on a miss) and the payload is read and written through
// accessors; numbers are dense, 0 to Len()−1 in insertion order.
type Table struct {
	schema   *tuple.Schema
	width    int
	buckets  []bucket
	maxLoad  float64 // grow when exceeded; 0 = never grow
	stats    Stats
	memBytes int
	n        int
	hint     int // expected cardinality: the first allocation's capacity

	// Element i's columns; len(pos) is the capacity.
	keys     []byte   // key i at keys[i*width:]
	nums     []int64  // counter i; allocated on first use
	next     []int32  // next element toward the chain's tail, + 1
	pos      []int32  // position in its chain, 1 at the tail
	nbits    int      // bits per element bit map; 0 = no bit maps
	bitWords int      // words per element bit map
	bits     []uint64 // bit map i at bits[i*bitWords:]

	// Open addressing with linear probing at load at most 1/2. A slot is
	// the high 32 bits of the spread hash (the tag) over element + 1;
	// zero is empty. The slot of a spread hash m is m >> shift.
	slots []uint64
	shift uint
}

// New creates a table for key tuples of the given schema with nBuckets
// chains. nBuckets is rounded up to at least 1.
func New(schema *tuple.Schema, nBuckets int) *Table {
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Table{
		schema:  schema,
		width:   schema.Width(),
		buckets: make([]bucket, nBuckets),
		maxLoad: 4,
		hint:    2 * nBuckets,
		slots:   emptySlots,
		shift:   64,
	}
}

// NewForExpected sizes the table so the average bucket holds hbs tuples at
// the expected cardinality, the paper's "average size of each hash bucket"
// parameter (hbs = 2 in §4.6).
func NewForExpected(schema *tuple.Schema, expected int, hbs float64) *Table {
	if hbs <= 0 {
		hbs = 2
	}
	t := New(schema, int(float64(expected)/hbs)+1)
	t.hint = expected
	return t
}

// NewWithCapacity pre-sizes the table to hold capacity elements at the
// default bucket size without ever growing: batch build loops use it when
// the input cardinality is known from workload statistics, so the rehash
// work grow() would charge never happens. The table still grows past ~2×
// the stated capacity if the estimate proves wrong.
func NewWithCapacity(schema *tuple.Schema, capacity int) *Table {
	if capacity < 0 {
		capacity = 0
	}
	t := New(schema, capacity/2+1)
	t.hint = capacity
	return t
}

// SetMaxLoad configures automatic growth: the table doubles its bucket count
// whenever elements/buckets exceeds maxLoad. Zero disables growth (fixed
// geometry, as in the paper's experiments).
func (t *Table) SetMaxLoad(maxLoad float64) { t.maxLoad = maxLoad }

// SetBitMaps gives every element an nbits-bit map, all zeros when the
// element is inserted, and charges its words to MemBytes — hash-division's
// quotient candidates (one bit per divisor tuple) and the collection sites'
// phase maps. It must be called while the table is empty.
func (t *Table) SetBitMaps(nbits int) {
	if nbits < 0 || (t.n > 0 && nbits != t.nbits) {
		panic(fmt.Sprintf("hashtab: SetBitMaps(%d) on a table of %d elements with %d-bit maps", nbits, t.n, t.nbits))
	}
	t.nbits = nbits
	t.bitWords = (nbits + 63) / 64
	t.bits = make([]uint64, len(t.pos)*t.bitWords)
}

// Schema returns the stored tuples' layout.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Len returns the number of stored elements.
func (t *Table) Len() int { return t.n }

// NumBuckets returns the bucket count.
func (t *Table) NumBuckets() int { return len(t.buckets) }

// LoadFactor returns elements per bucket.
func (t *Table) LoadFactor() float64 { return float64(t.n) / float64(len(t.buckets)) }

// Stats returns the accumulated work counters.
func (t *Table) Stats() Stats { return t.stats }

// MemBytes is the table's footprint in the budget model: key bytes plus 48
// per element, 8 per bucket, and the bit maps' words. Hash table overflow
// handling keys off this number.
func (t *Table) MemBytes() int {
	return t.memBytes + len(t.buckets)*8
}

func (t *Table) bucketFor(h uint64) int {
	// Multiply-shift range reduction (Lemire 2016): maps the 64-bit hash
	// uniformly onto [0, nbuckets) with one multiply-high instead of the
	// ~25-cycle 64-bit modulo.
	hi, _ := bits.Mul64(h, uint64(len(t.buckets)))
	return int(hi)
}

// charge adds the comparisons the chain walk of a probe with hash h would
// make: len − pos + 1 when it stops at element e, the whole chain on a miss.
func (t *Table) charge(st *Stats, h uint64, e int32) {
	n := t.buckets[t.bucketFor(h)].n
	if e >= 0 {
		n += 1 - t.pos[e]
	}
	st.Comparisons += int64(n)
}

// find returns the element whose key satisfies eq(src, key), or −1; m is
// the spread hash.
func (t *Table) find(m uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool) int32 {
	slots, w := t.slots, t.width
	mask := uint64(len(slots) - 1)
	tag := m >> 32
	for i := m >> t.shift; ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == tag {
			e := int32(s) - 1
			k := int(e) * w
			if eq(src, t.keys[k:k+w:k+w]) {
				return e
			}
		}
	}
}

// findU64 is find for a single 8-byte key column compared as a word.
func (t *Table) findU64(m, key uint64) int32 {
	slots, keys := t.slots, t.keys
	mask := uint64(len(slots) - 1)
	tag := m >> 32
	for i := m >> t.shift; ; i = (i + 1) & mask {
		s := slots[i]
		if s == 0 {
			return -1
		}
		if s>>32 == tag {
			e := int32(s) - 1
			if binary.LittleEndian.Uint64(keys[int(e)*8:]) == key {
				return e
			}
		}
	}
}

func keyEqual(src, stored tuple.Tuple) bool { return string(src) == string(stored) }

func (t *Table) lookup(key tuple.Tuple, st *Stats) int {
	return t.lookupPre(tuple.HashBytes(key), key, keyEqual, st)
}

func (t *Table) lookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int, st *Stats) int {
	return t.lookupPre(srcSchema.Hash(src, cols), src, func(src, stored tuple.Tuple) bool {
		return srcSchema.EqualProjected(src, cols, stored)
	}, st)
}

func (t *Table) lookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, st *Stats) int {
	st.Hashes++
	e := t.find(h*fib, src, eq)
	t.charge(st, h, e)
	return int(e)
}

func (t *Table) lookupU64(h, key uint64, st *Stats) int {
	st.Hashes++
	e := t.findU64(h*fib, key)
	t.charge(st, h, e)
	return int(e)
}

// Lookup finds the element whose stored tuple equals key (all columns), or
// −1.
func (t *Table) Lookup(key tuple.Tuple) int { return t.lookup(key, &t.stats) }

// LookupProjected matches the cols projection of src (laid out by srcSchema)
// against the stored tuples without materializing the projection — the inner
// loop of hash-division step 2.
func (t *Table) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) int {
	return t.lookupProjected(src, srcSchema, cols, &t.stats)
}

// LookupPre is LookupProjected with the hash value and equality predicate
// supplied by the caller: batch kernels compile them once (tuple.HashFunc,
// tuple.EqualProjectedFunc) and hoist them out of the per-tuple loop. The
// hash must equal the schema hash of src's projection and eq must match
// EqualProjected, so Stats and the quotient are identical to the generic
// path.
func (t *Table) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool) int {
	return t.lookupPre(h, src, eq, &t.stats)
}

// LookupU64 is LookupProjected specialized to a single 8-byte key column:
// key is the little-endian word of the projection and h its schema hash
// (tuple.HashUint64LE of key). Keys compare as words, with no closure call,
// while Stats stay identical to the generic probe. The batch hash-division
// kernel uses it when both the divisor and quotient projections are single
// 8-byte columns.
func (t *Table) LookupU64(h, key uint64) int { return t.lookupU64(h, key, &t.stats) }

// GetOrInsert returns the element matching key, inserting a copy when
// absent. created reports whether an insertion happened. This is the
// "eliminate duplicates in the divisor on the fly" path.
func (t *Table) GetOrInsert(key tuple.Tuple) (e int, created bool) {
	if len(key) != t.width {
		panic(fmt.Sprintf("hashtab: %d-byte key for a %d-byte schema", len(key), t.width))
	}
	return t.GetOrInsertPre(tuple.HashBytes(key), key, keyEqual, func(dst, src tuple.Tuple) { copy(dst, src) })
}

// GetOrInsertProjected is GetOrInsert keyed by the cols projection of src;
// the stored tuple is the materialized projection. This is the quotient-table
// probe of hash-division step 2.
func (t *Table) GetOrInsertProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int) (e int, created bool) {
	return t.GetOrInsertPre(srcSchema.Hash(src, cols), src,
		func(src, stored tuple.Tuple) bool { return srcSchema.EqualProjected(src, cols, stored) },
		func(dst, src tuple.Tuple) { srcSchema.ProjectInto(dst, src, cols) })
}

// GetOrInsertPre is GetOrInsertProjected with caller-compiled hash and
// equality (see LookupPre); project writes the stored key into dst, the new
// element's key, when an insert happens.
func (t *Table) GetOrInsertPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, project func(dst, src tuple.Tuple)) (e int, created bool) {
	t.stats.Hashes++
	m := h * fib
	if f := t.find(m, src, eq); f >= 0 {
		t.charge(&t.stats, h, f)
		return int(f), false
	}
	t.charge(&t.stats, h, -1)
	e = t.insert(h, m)
	project(t.Key(e), src)
	return e, true
}

// GetOrInsertU64 is GetOrInsertProjected specialized like LookupU64; the
// stored key is the eight little-endian bytes of key.
func (t *Table) GetOrInsertU64(h, key uint64) (e int, created bool) {
	t.stats.Hashes++
	m := h * fib
	if f := t.findU64(m, key); f >= 0 {
		t.charge(&t.stats, h, f)
		return int(f), false
	}
	t.charge(&t.stats, h, -1)
	e = t.insert(h, m)
	binary.LittleEndian.PutUint64(t.keys[e*8:], key)
	return e, true
}

// insert appends an element with hash h (spread hash m) at the head of its
// chain and in the index, growing the chains first when the load would
// exceed maxLoad; the caller writes its key.
func (t *Table) insert(h, m uint64) int {
	if t.maxLoad > 0 && float64(t.n+1) > t.maxLoad*float64(len(t.buckets)) {
		t.grow()
	}
	if t.n == len(t.pos) {
		t.reserve()
	}
	e := int32(t.n)
	t.n++
	b := &t.buckets[t.bucketFor(h)]
	t.next[e] = b.head
	b.head = e + 1
	b.n++
	t.pos[e] = b.n
	t.place(m, e)
	t.memBytes += t.width + elementOverheadBytes + t.bitWords*8
	return int(e)
}

// place puts element e with spread hash m into the first free index slot.
func (t *Table) place(m uint64, e int32) {
	mask := uint64(len(t.slots) - 1)
	i := m >> t.shift
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = m&^0xffffffff | uint64(e+1)
}

// reserve doubles the element capacity — the first time to the expected
// cardinality — and rebuilds the index at twice that many slots. Slots
// re-place from their tags alone, since a slot's position is a prefix of
// its tag.
func (t *Table) reserve() {
	c := 2 * len(t.pos)
	if c == 0 {
		c = min(max(t.hint, minCap), maxFirstCap)
	}
	t.keys = growTo(t.keys, c*t.width)
	if t.nums != nil {
		t.nums = growTo(t.nums, c)
	}
	t.next = growTo(t.next, c)
	t.pos = growTo(t.pos, c)
	t.bits = growTo(t.bits, c*t.bitWords)

	old := t.slots
	logSlots := bits.Len(uint(2*c - 1))
	t.slots = make([]uint64, 1<<logSlots)
	t.shift = uint(64 - logSlots)
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := s >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// growTo returns s copied into a zeroed slice of length n.
func growTo[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// grow doubles the bucket count and re-threads the chains in the order the
// old chains are walked — bucket by bucket, head to tail — each moved
// element becoming the head of its new chain. Each move recomputes the
// element's hash, which is charged.
func (t *Table) grow() {
	old := t.buckets
	t.buckets = make([]bucket, 2*len(old))
	var moved int64
	for _, ob := range old {
		for e := ob.head - 1; e >= 0; {
			next := t.next[e] - 1
			k := int(e) * t.width
			var h uint64
			if t.width == 8 {
				h = tuple.HashUint64LE(binary.LittleEndian.Uint64(t.keys[k:]))
			} else {
				h = tuple.HashBytes(t.keys[k : k+t.width])
			}
			b := &t.buckets[t.bucketFor(h)]
			t.next[e] = b.head
			b.head = e + 1
			b.n++
			t.pos[e] = b.n
			e = next
			moved++
		}
	}
	t.stats.Hashes += moved
	t.stats.Rehashed += moved
}

// Key returns element i's stored tuple. It stays valid, and unchanged, for
// the table's lifetime, inserts and Reset included.
func (t *Table) Key(i int) tuple.Tuple {
	k := i * t.width
	return t.keys[k : k+t.width : k+t.width]
}

// Num returns element i's counter (divisor number, count), zero until set.
func (t *Table) Num(i int) int64 {
	if t.nums == nil {
		return 0
	}
	return t.nums[i]
}

// SetNum sets element i's counter.
func (t *Table) SetNum(i int, v int64) { t.numSlice()[i] = v }

// AddNum adds d to element i's counter and returns the new value.
func (t *Table) AddNum(i int, d int64) int64 {
	nums := t.numSlice()
	nums[i] += d
	return nums[i]
}

func (t *Table) numSlice() []int64 {
	if t.nums == nil {
		t.nums = make([]int64, len(t.pos))
	}
	return t.nums
}

// BitMapWords returns the words in each element's bit map.
func (t *Table) BitMapWords() int { return t.bitWords }

// BitMap returns element i's bit map words, little-endian within each word
// (bit b lives in word b/64). The slice aliases the table until the next
// insert.
func (t *Table) BitMap(i int) []uint64 {
	k := i * t.bitWords
	return t.bits[k : k+t.bitWords : k+t.bitWords]
}

func (t *Table) bitIndex(i, b int) (word int, mask uint64) {
	if uint(b) >= uint(t.nbits) {
		panic(fmt.Sprintf("hashtab: bit %d out of range [0,%d)", b, t.nbits))
	}
	return i*t.bitWords + b>>6, 1 << (b & 63)
}

// SetBit sets bit b of element i's map.
func (t *Table) SetBit(i, b int) {
	w, mask := t.bitIndex(i, b)
	t.bits[w] |= mask
}

// SetBitReport sets bit b of element i's map and reports whether it was
// already set — the early-emit variant's test for a fresh bit (§3.3).
func (t *Table) SetBitReport(i, b int) (wasSet bool) {
	w, mask := t.bitIndex(i, b)
	wasSet = t.bits[w]&mask != 0
	t.bits[w] |= mask
	return wasSet
}

// PopCount returns the number of set bits in element i's map, a word at a
// time (§3.3).
func (t *Table) PopCount(i int) int {
	c := 0
	for _, w := range t.BitMap(i) {
		c += bits.OnesCount64(w)
	}
	return c
}

// AllSet reports whether element i's map has no zero bit. Bits past the
// map's size are never set, so this is PopCount == size.
func (t *Table) AllSet(i int) bool { return t.PopCount(i) == t.nbits }

// Iterate calls fn for every element in bucket order, each chain from head
// to tail (the "scan all buckets" of hash-division step 3). Iteration stops
// at the first error.
func (t *Table) Iterate(fn func(i int) error) error {
	for _, b := range t.buckets {
		for e := b.head - 1; e >= 0; e = t.next[e] - 1 {
			if err := fn(int(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reset empties the table, keeping the bucket array. Keys returned before
// stay valid: the element storage is released, not reused.
func (t *Table) Reset() {
	clear(t.buckets)
	t.n = 0
	t.memBytes = 0
	t.keys, t.nums, t.next, t.pos, t.bits = nil, nil, nil, nil, nil
	t.slots, t.shift = emptySlots, 64
}

func (t *Table) String() string {
	return fmt.Sprintf("hashtab{%d elements, %d buckets, load %.2f}", t.n, len(t.buckets), t.LoadFactor())
}

// Frozen is an immutable, concurrently probeable view of a Table. Every
// Table probe mutates the table's Stats, so sharing a *Table across
// goroutines is a data race even for pure lookups; Freeze separates the two
// concerns. A Frozen view runs the table's own probe code against the
// caller's *Stats accumulator, so any number of goroutines may probe it
// simultaneously. The parallel shared-table absorb path (DESIGN.md §9) uses
// this for the divisor table, which is immutable after its build phase.
type Frozen struct{ t *Table }

// Freeze returns a read-only concurrent view of the table's current
// contents. The table must not be mutated afterwards (no inserts, no Reset
// or payload writes); probes on the Table itself remain legal, since they
// write only the table's Stats, which Frozen probes do not touch.
func (t *Table) Freeze() *Frozen { return &Frozen{t: t} }

// Lookup is Table.Lookup against the frozen view; st accumulates the probe
// work and must be private to the calling goroutine.
func (f *Frozen) Lookup(key tuple.Tuple, st *Stats) int { return f.t.lookup(key, st) }

// LookupProjected is Table.LookupProjected against the frozen view.
func (f *Frozen) LookupProjected(src tuple.Tuple, srcSchema *tuple.Schema, cols []int, st *Stats) int {
	return f.t.lookupProjected(src, srcSchema, cols, st)
}

// LookupPre is Table.LookupPre against the frozen view: caller-compiled hash
// and equality, caller-owned stats.
func (f *Frozen) LookupPre(h uint64, src tuple.Tuple, eq func(src, stored tuple.Tuple) bool, st *Stats) int {
	return f.t.lookupPre(h, src, eq, st)
}

// LookupU64 is Table.LookupU64 against the frozen view.
func (f *Frozen) LookupU64(h, key uint64, st *Stats) int { return f.t.lookupU64(h, key, st) }

// Num returns element i's counter.
func (f *Frozen) Num(i int) int64 { return f.t.Num(i) }
