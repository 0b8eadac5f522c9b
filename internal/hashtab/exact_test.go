package hashtab

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/tuple"
)

// exactRun drives one operation sequence through the flat table and the
// chained reference (ref_test.go) and fails at the first difference in a
// returned element or payload, in Stats, in MemBytes or in Iterate order.
// Element numbers are matched to reference elements as they are created.
type exactRun struct {
	t       testing.TB
	ks, src *tuple.Schema // key schema; source schema with the key at cols
	cols    []int
	u64     bool // the key is one 8-byte column
	nbits   int

	flat    *Table
	ref     *refTable
	frozenF *Frozen
	frozenR *refFrozen
	fst     [2]Stats // frozen probe stats: flat, reference
	num     map[*refElement]int
	op      int
}

func newExactRun(tb testing.TB, char bool, nBuckets int, maxLoad float64, nbits int) *exactRun {
	r := &exactRun{t: tb, nbits: nbits, cols: []int{1}}
	if char {
		r.src = tuple.NewSchema(tuple.CharField("pad", 3), tuple.CharField("k", 5))
	} else {
		r.src = tuple.NewSchema(tuple.Int64Field("pad"), tuple.Int64Field("k"))
		r.u64 = true
	}
	r.ks = r.src.Project(r.cols)
	r.flat, r.ref = New(r.ks, nBuckets), newRef(r.ks, nBuckets)
	r.flat.SetMaxLoad(maxLoad)
	r.ref.SetMaxLoad(maxLoad)
	r.flat.SetBitMaps(nbits)
	r.num = make(map[*refElement]int)
	return r
}

// source returns a source tuple whose key projection encodes v.
func (r *exactRun) source(v uint16) tuple.Tuple {
	if r.u64 {
		return r.src.MustMake(int64(v)*7919, int64(v))
	}
	return r.src.MustMake("pad", fmt.Sprintf("k%04x", v))
}

func (r *exactRun) key(v uint16) tuple.Tuple { return r.src.ProjectTuple(r.source(v), r.cols) }

// check compares a probe's outcome and every counter.
func (r *exactRun) check(what string, got int, want *refElement, gotCreated, wantCreated bool) {
	r.t.Helper()
	r.op++
	if gotCreated != wantCreated {
		r.t.Fatalf("op %d %s: created %v, reference %v", r.op, what, gotCreated, wantCreated)
	}
	if wantCreated {
		if _, dup := r.num[want]; dup || got != r.flat.Len()-1 {
			r.t.Fatalf("op %d %s: created element %d of %d", r.op, what, got, r.flat.Len())
		}
		r.num[want] = got
		want.Bits = bitmap.New(r.nbits)
		r.ref.AddMemBytes(want.Bits.SizeBytes())
	}
	if want == nil {
		if got != -1 {
			r.t.Fatalf("op %d %s: element %d, reference missed", r.op, what, got)
		}
	} else {
		if n, ok := r.num[want]; !ok || n != got {
			r.t.Fatalf("op %d %s: element %d, reference element %d", r.op, what, got, n)
		}
		if string(r.flat.Key(got)) != string(want.Tuple) || r.flat.Num(got) != want.Num ||
			!slices.Equal(r.flat.BitMap(got), want.Bits.Words()) {
			r.t.Fatalf("op %d %s: element %d payload differs", r.op, what, got)
		}
	}
	r.checkCounters(what)
}

func (r *exactRun) checkCounters(what string) {
	r.t.Helper()
	if r.flat.Stats() != r.ref.Stats() || r.fst[0] != r.fst[1] {
		r.t.Fatalf("op %d %s: stats %+v frozen %+v, reference %+v frozen %+v",
			r.op, what, r.flat.Stats(), r.fst[0], r.ref.Stats(), r.fst[1])
	}
	if r.flat.MemBytes() != r.ref.MemBytes() || r.flat.Len() != r.ref.Len() || r.flat.NumBuckets() != r.ref.NumBuckets() {
		r.t.Fatalf("op %d %s: MemBytes %d Len %d buckets %d, reference %d %d %d", r.op, what,
			r.flat.MemBytes(), r.flat.Len(), r.flat.NumBuckets(), r.ref.MemBytes(), r.ref.Len(), r.ref.NumBuckets())
	}
}

func (r *exactRun) checkIterate() {
	r.t.Helper()
	var got, want []int
	if err := r.flat.Iterate(func(e int) error { got = append(got, e); return nil }); err != nil {
		r.t.Fatal(err)
	}
	if err := r.ref.Iterate(func(e *refElement) error { want = append(want, r.num[e]); return nil }); err != nil {
		r.t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		r.t.Fatalf("op %d: Iterate order differs (%d vs %d elements)", r.op, len(got), len(want))
	}
}

// step applies one operation, selected by kind, to key value v.
func (r *exactRun) step(kind byte, v uint16) {
	src, key := r.source(v), r.key(v)
	hash := r.src.HashFunc(r.cols)
	eq := r.src.EqualProjectedFunc(r.cols)
	refProject := func(t tuple.Tuple) tuple.Tuple { return r.src.ProjectTuple(t, r.cols) }
	flatProject := func(dst, t tuple.Tuple) { r.src.ProjectInto(dst, t, r.cols) }
	k64 := uint64(0)
	if r.u64 {
		k64 = binary.LittleEndian.Uint64(key)
	}
	switch kind % 16 {
	case 0:
		r.check("Lookup", r.flat.Lookup(key), r.ref.Lookup(key), false, false)
	case 1:
		r.check("LookupProjected", r.flat.LookupProjected(src, r.src, r.cols), r.ref.LookupProjected(src, r.src, r.cols), false, false)
	case 2:
		r.check("LookupPre", r.flat.LookupPre(hash(src), src, eq), r.ref.LookupPre(hash(src), src, eq), false, false)
	case 3:
		if r.u64 {
			r.check("LookupU64", r.flat.LookupU64(tuple.HashUint64LE(k64), k64), r.ref.LookupU64(tuple.HashUint64LE(k64), k64), false, false)
		}
	case 4, 5:
		e, c := r.flat.GetOrInsert(key)
		we, wc := r.ref.GetOrInsert(key)
		r.check("GetOrInsert", e, we, c, wc)
	case 6, 7:
		e, c := r.flat.GetOrInsertProjected(src, r.src, r.cols)
		we, wc := r.ref.GetOrInsertProjected(src, r.src, r.cols)
		r.check("GetOrInsertProjected", e, we, c, wc)
	case 8, 9:
		e, c := r.flat.GetOrInsertPre(hash(src), src, eq, flatProject)
		we, wc := r.ref.GetOrInsertPre(hash(src), src, eq, refProject)
		r.check("GetOrInsertPre", e, we, c, wc)
	case 10:
		if r.u64 {
			e, c := r.flat.GetOrInsertU64(tuple.HashUint64LE(k64), k64)
			we, wc := r.ref.GetOrInsertU64(tuple.HashUint64LE(k64), k64)
			r.check("GetOrInsertU64", e, we, c, wc)
		}
	case 11:
		// A payload write on a present element: counter and one bit.
		e, we := r.flat.Lookup(key), r.ref.Lookup(key)
		r.check("Lookup", e, we, false, false)
		if e >= 0 {
			we.Num += int64(v)
			if r.flat.AddNum(e, int64(v)) != we.Num {
				r.t.Fatalf("op %d: AddNum differs", r.op)
			}
			if r.nbits > 0 {
				b := int(v) % r.nbits
				if r.flat.SetBitReport(e, b) != we.Bits.SetAndReport(b) {
					r.t.Fatalf("op %d: SetBitReport differs", r.op)
				}
				if r.flat.PopCount(e) != we.Bits.PopCount() || r.flat.AllSet(e) != we.Bits.AllSet() {
					r.t.Fatalf("op %d: bit map counts differ", r.op)
				}
			}
			r.check("payload", e, we, false, false)
		}
	case 12, 13:
		// Probes through views frozen now; a later insert refreezes.
		r.frozenF, r.frozenR = r.flat.Freeze(), r.ref.Freeze()
		if kind%2 == 0 {
			r.check("Frozen.Lookup", r.frozenF.Lookup(key, &r.fst[0]), r.frozenR.Lookup(key, &r.fst[1]), false, false)
			r.check("Frozen.LookupProjected", r.frozenF.LookupProjected(src, r.src, r.cols, &r.fst[0]),
				r.frozenR.LookupProjected(src, r.src, r.cols, &r.fst[1]), false, false)
		} else {
			r.check("Frozen.LookupPre", r.frozenF.LookupPre(hash(src), src, eq, &r.fst[0]),
				r.frozenR.LookupPre(hash(src), src, eq, &r.fst[1]), false, false)
			if r.u64 {
				r.check("Frozen.LookupU64", r.frozenF.LookupU64(tuple.HashUint64LE(k64), k64, &r.fst[0]),
					r.frozenR.LookupU64(tuple.HashUint64LE(k64), k64, &r.fst[1]), false, false)
			}
		}
	case 14:
		r.checkIterate()
	case 15:
		if v%64 == 0 { // rare: empty both tables
			r.flat.Reset()
			r.ref.Reset()
			r.num = make(map[*refElement]int)
			r.checkCounters("Reset")
		}
	}
}

// exactOps decodes a byte string into a run: a 4-byte header (key kind,
// bucket count, max load, bit-map width), then 3 bytes per operation
// (kind, key value).
func exactOps(tb testing.TB, data []byte) {
	if len(data) < 4 {
		return
	}
	maxLoad := []float64{4, 0, 2, 1}[data[2]%4]
	r := newExactRun(tb, data[0]%2 == 1, 1+int(data[1]%32), maxLoad, int(data[3])%131)
	for ops := data[4:]; len(ops) >= 3; ops = ops[3:] {
		r.step(ops[0], binary.LittleEndian.Uint16(ops[1:]))
	}
	r.checkIterate()
}

// TestFlatTableMatchesChainedReference runs random operation sequences of
// up to 5000 distinct keys through both tables, over int64 and CHAR keys,
// growing and fixed geometries, with and without bit maps.
func TestFlatTableMatchesChainedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for run := 0; run < 40; run++ {
		keys := []int{1, 5, 50, 600, 5000}[run%5]
		nOps := 4 * keys
		if nOps < 200 {
			nOps = 200
		}
		data := []byte{byte(run / 5 % 2), byte(rng.Intn(32)), byte(run / 10 % 4), byte(rng.Intn(131))}
		for i := 0; i < nOps; i++ {
			kind := byte(rng.Intn(16))
			if i%(nOps/4) == 0 {
				kind = 14 // Iterate at fixed points
			}
			v := uint16(rng.Intn(keys))
			data = append(data, kind, byte(v), byte(v>>8))
		}
		t.Run(fmt.Sprintf("run%d/keys%d", run, keys), func(t *testing.T) { exactOps(t, data) })
	}
}

// FuzzFlatTableMatchesChainedReference is the fuzz form of the property test.
func FuzzFlatTableMatchesChainedReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 1, 0, 4, 2, 0, 0, 1, 0, 14, 0, 0})
	f.Add([]byte{1, 3, 1, 100, 6, 7, 0, 8, 9, 0, 11, 7, 0, 12, 9, 0, 13, 7, 0, 15, 0, 0, 4, 7, 0})
	f.Add([]byte{0, 0, 2, 64, 10, 1, 0, 10, 2, 0, 10, 3, 0, 10, 4, 0, 10, 5, 0, 3, 3, 0, 11, 3, 0, 14, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { exactOps(t, data) })
}
