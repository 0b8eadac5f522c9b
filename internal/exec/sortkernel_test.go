package exec

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tuple"
)

// keyedSort returns a Sort on schema and cols whose arena keys hold the
// normalized keys of ts, slot i for ts[i], counting into c.
func keyedSort(schema *tuple.Schema, cols []int, ts []tuple.Tuple, c *Counters) *Sort {
	s := NewSort(NewMemScan(schema, nil), SortConfig{Keys: cols, Counters: c})
	s.keys = make([]uint64, len(ts)*s.kw)
	for i, t := range ts {
		s.norm.Encode(s.key(int32(i)), t)
	}
	return s
}

// kernelCase is one key shape for the exactness tests: a schema, its sort
// keys and a generator of values with many ties.
type kernelCase struct {
	name   string
	schema *tuple.Schema
	cols   []int
	gen    func(rng *rand.Rand, i int) tuple.Tuple
}

var kernelInt64s = []int64{math.MinInt64, math.MinInt64 + 1, -1 << 40, -2, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}

func kernelCases() []kernelCase {
	ints := tuple.NewSchema(tuple.Int64Field("k"), tuple.Int64Field("pos"))
	chars := tuple.NewSchema(tuple.CharField("c", 12), tuple.Int64Field("pos"))
	mixed := tuple.NewSchema(tuple.Int64Field("a"), tuple.CharField("b", 12), tuple.Int64Field("c"), tuple.Int64Field("pos"))
	charVal := func(rng *rand.Rand) string {
		// Short strings over a tiny alphabet that includes the zero byte, so
		// ties, prefixes and embedded zeros are all common.
		b := make([]byte, rng.Intn(13))
		for i := range b {
			b[i] = "\x00ab\xff"[rng.Intn(4)]
		}
		return string(b)
	}
	return []kernelCase{
		{"int64", ints, []int{0}, func(rng *rand.Rand, i int) tuple.Tuple {
			return ints.MustMake(kernelInt64s[rng.Intn(len(kernelInt64s))], i)
		}},
		{"char12", chars, []int{0}, func(rng *rand.Rand, i int) tuple.Tuple {
			return chars.MustMake(charVal(rng), i)
		}},
		{"c,b,a", mixed, []int{2, 1, 0}, func(rng *rand.Rand, i int) tuple.Tuple {
			return mixed.MustMake(kernelInt64s[rng.Intn(len(kernelInt64s))], charVal(rng), int64(rng.Intn(3)-1), i)
		}},
	}
}

// kernelSizes covers every size up to three insertion-sort blocks, the
// block edges, and sizes up to 3000 between them.
func kernelSizes() []int {
	var sizes []int
	for n := 0; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	for n := 65; n < 3000; n += 89 {
		sizes = append(sizes, n)
	}
	return append(sizes, 639, 640, 641, 1280, 2999, 3000)
}

// TestSortSlotsMatchesLibraryStableSorts holds the run sorter to
// slices.SortStableFunc and sort.SliceStable with counting comparators on
// the tuples: the same permutation and the same number of comparisons, for
// random, all-equal, sorted and reversed inputs of every key shape.
func TestSortSlotsMatchesLibraryStableSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kc := range kernelCases() {
		cmp := kc.schema.CompareFunc(kc.cols)
		for _, n := range kernelSizes() {
			random := make([]tuple.Tuple, n)
			for i := range random {
				random[i] = kc.gen(rng, i)
			}
			sorted := slices.Clone(random)
			slices.SortStableFunc(sorted, cmp)
			reversed := slices.Clone(sorted)
			slices.Reverse(reversed)
			equal := make([]tuple.Tuple, n)
			for i := range equal {
				equal[i] = kc.schema.MustMake(slices.Clone(kc.schema.Row(random[0]))...)
			}
			for _, in := range []struct {
				name string
				ts   []tuple.Tuple
			}{{"random", random}, {"sorted", sorted}, {"reversed", reversed}, {"all-equal", equal}} {
				if n == 0 && in.name != "random" {
					continue
				}
				name := fmt.Sprintf("%s/n=%d/%s", kc.name, n, in.name)
				ts := in.ts
				var c Counters
				s := keyedSort(kc.schema, kc.cols, ts, &c)
				perm := make([]int32, n)
				for i := range perm {
					perm[i] = int32(i)
				}
				s.sortSlots(perm)

				var libComps, sliceComps int64
				lib := slices.Clone(perm)
				for i := range lib {
					lib[i] = int32(i)
				}
				slices.SortStableFunc(lib, func(a, b int32) int {
					libComps++
					return cmp(ts[a], ts[b])
				})
				sl := slices.Clone(lib)
				for i := range sl {
					sl[i] = int32(i)
				}
				sort.SliceStable(sl, func(i, j int) bool {
					sliceComps++
					return cmp(ts[sl[i]], ts[sl[j]]) < 0
				})
				if !slices.Equal(perm, lib) || !slices.Equal(perm, sl) {
					t.Fatalf("%s: permutation differs from the library stable sorts", name)
				}
				if c.Comp != libComps || c.Comp != sliceComps {
					t.Fatalf("%s: %d comparisons, slices.SortStableFunc %d, sort.SliceStable %d", name, c.Comp, libComps, sliceComps)
				}
			}
		}
	}
}

// refMergeHeap is the merge heap as container/heap runs it, over cursors
// holding the same keys, counting its key comparisons and breaking ties by
// run index.
type refMergeHeap struct {
	curs  []*refHeapCursor
	comps int64
}

type refHeapCursor struct {
	key   []uint64
	index int
}

func (h *refMergeHeap) Len() int { return len(h.curs) }
func (h *refMergeHeap) Less(i, j int) bool {
	h.comps++
	a, b := h.curs[i].key, h.curs[j].key
	if !slices.Equal(a, b) {
		return tuple.LessWords(a, b)
	}
	return h.curs[i].index < h.curs[j].index
}
func (h *refMergeHeap) Swap(i, j int) { h.curs[i], h.curs[j] = h.curs[j], h.curs[i] }
func (h *refMergeHeap) Push(x any)    { h.curs = append(h.curs, x.(*refHeapCursor)) }
func (h *refMergeHeap) Pop() any {
	x := h.curs[len(h.curs)-1]
	h.curs = h.curs[:len(h.curs)-1]
	return x
}

// TestMergeHeapMatchesContainerHeap merges sorted runs of keys with many
// ties through the merge heap and through container/heap: the runs must
// leave in the same order, and the heaps must make the same comparisons.
func TestMergeHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		k := 1 + rng.Intn(40)
		kw := 1 + rng.Intn(3)
		runs := make([][][]uint64, k)
		for i := range runs {
			run := make([][]uint64, rng.Intn(30))
			for j := range run {
				key := make([]uint64, kw)
				for w := range key {
					key[w] = uint64(rng.Intn(3))
				}
				run[j] = key
			}
			slices.SortFunc(run, func(a, b []uint64) int {
				if tuple.LessWords(a, b) {
					return -1
				}
				if tuple.LessWords(b, a) {
					return 1
				}
				return 0
			})
			runs[i] = run
		}
		// The merge heap's cursors, and the runs they stand for.
		var c Counters
		m := &mergeState{s: &Sort{cfg: SortConfig{Counters: &c}}}
		runOf := map[*runCursor]int{}
		for i, run := range runs {
			if len(run) > 0 {
				rc := newRunCursor(nil, i, kw)
				copy(rc.key, run[0])
				m.heap = append(m.heap, rc)
				runOf[rc] = i
			}
		}
		pos := make([]int, k)
		next := func(run int) []uint64 {
			if pos[run]++; pos[run] == len(runs[run]) {
				return nil
			}
			return runs[run][pos[run]]
		}

		m.init()
		var got []int
		for len(m.heap) > 0 {
			top := m.heap[0]
			got = append(got, runOf[top])
			if key := next(runOf[top]); key != nil {
				copy(top.key, key)
				m.fixTop()
			} else {
				m.pop()
			}
		}

		clear(pos)
		ref := &refMergeHeap{}
		for i, run := range runs {
			if len(run) > 0 {
				ref.curs = append(ref.curs, &refHeapCursor{key: run[0], index: i})
			}
		}
		heap.Init(ref)
		var want []int
		for ref.Len() > 0 {
			top := ref.curs[0]
			want = append(want, top.index)
			if key := next(top.index); key != nil {
				top.key = key
				heap.Fix(ref, 0)
			} else {
				heap.Pop(ref)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d: runs leave the merge heap in order %v, container/heap %v", iter, got, want)
		}
		if c.Comp != ref.comps {
			t.Fatalf("iter %d: merge heap made %d comparisons, container/heap %d", iter, c.Comp, ref.comps)
		}
	}
}

// BenchmarkSortSlots sorts one paper-sized run (100 KB of 16-byte tuples on
// a two-column key, as the naive division's dividend sort does) with the
// run sorter and, for reference, with slices.SortStableFunc on the tuples.
func BenchmarkSortSlots(b *testing.B) {
	const n = 6400
	rng := rand.New(rand.NewSource(3))
	ts := make([]tuple.Tuple, n)
	for i := range ts {
		ts[i] = pairSchema.MustMake(rng.Int63n(400), rng.Int63n(400))
	}
	cols := []int{0, 1}
	b.Run("keys", func(b *testing.B) {
		s := keyedSort(pairSchema, cols, ts, &Counters{})
		perm := make([]int32, n)
		for i := 0; i < b.N; i++ {
			for j := range perm {
				perm[j] = int32(j)
			}
			s.sortSlots(perm)
		}
	})
	b.Run("tuples", func(b *testing.B) {
		var c Counters
		cmp := pairSchema.CompareFunc(cols)
		work := make([]tuple.Tuple, n)
		for i := 0; i < b.N; i++ {
			copy(work, ts)
			slices.SortStableFunc(work, func(a, b tuple.Tuple) int {
				c.Comp++
				return cmp(a, b)
			})
		}
	})
}
