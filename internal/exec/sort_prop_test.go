package exec

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tuple"
)

// sliceStable is the run sorter Sort used before slices.SortStableFunc.
func sliceStable(ts []tuple.Tuple, cmp func(a, b tuple.Tuple) int) {
	sort.SliceStable(ts, func(i, j int) bool { return cmp(ts[i], ts[j]) < 0 })
}

// pairRows reads the (a, b) rows of pairSchema tuples.
func pairRows(ts []tuple.Tuple) [][2]int64 {
	rows := make([][2]int64, len(ts))
	for i, t := range ts {
		rows[i] = [2]int64{pairSchema.Int64(t, 0), pairSchema.Int64(t, 1)}
	}
	return rows
}

// sumB is the Combine of the property test: it sums column b per key.
func sumB(dst, src tuple.Tuple) {
	pairSchema.SetInt64(dst, 1, pairSchema.Int64(dst, 1)+pairSchema.Int64(src, 1))
}

// refSort is the reference for an in-memory Sort on column a: clone, stable
// sort, then drop or combine equal keys, counting comparisons the way Sort
// does.
func refSort(in []tuple.Tuple, dedup, combine bool) ([][2]int64, int64) {
	var comps int64
	cmp := func(a, b tuple.Tuple) int {
		comps++
		return pairSchema.Compare(a, b, []int{0})
	}
	ts := make([]tuple.Tuple, len(in))
	for i, t := range in {
		ts[i] = t.Clone()
	}
	sliceStable(ts, cmp)
	if (dedup || combine) && len(ts) > 0 {
		out := ts[:1]
		for _, t := range ts[1:] {
			if last := out[len(out)-1]; cmp(last, t) == 0 {
				if combine {
					sumB(last, t)
				}
				continue
			}
			out = append(out, t)
		}
		ts = out
	}
	return pairRows(ts), comps
}

// runSort drains one Sort over in, reading every tuple before the next Next
// as the Operator contract allows, and returns its rows, comparison count
// and spilled run count.
func runSort(t *testing.T, in []tuple.Tuple, cfg SortConfig) ([][2]int64, int64, int) {
	t.Helper()
	var c Counters
	pool, dev := sortTestEnv()
	cfg.Keys, cfg.Pool, cfg.TempDev, cfg.Counters = []int{0}, pool, dev, &c
	s := NewSort(NewMemScan(pairSchema, in), cfg)
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	var out [][2]int64
	for {
		tp, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]int64{pairSchema.Int64(tp, 0), pairSchema.Int64(tp, 1)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pool.FixedFrames(); n != 0 {
		t.Fatalf("%d frames still fixed after Close", n)
	}
	return out, c.Comp, s.SpilledRuns()
}

// TestSortMatchesSliceStableReference runs Sort on random inputs full of
// duplicate keys, plain, with Dedup and with Combine, with and without
// replacement selection, in memory and spilled. Against the sort's earlier
// algorithm on tuples (refExtSort), with sort.SliceStable and with
// slices.SortStableFunc as its run sorter, it must give identical output
// and an identical Counters.Comp; against the independent reference it must
// give the same rows (see checkSortRows) and, in memory, the same
// comparison count.
func TestSortMatchesSliceStableReference(t *testing.T) {
	_, dev := sortTestEnv()
	stables := map[string]func([]tuple.Tuple, func(a, b tuple.Tuple) int){
		"sort.SliceStable":      sliceStable,
		"slices.SortStableFunc": slices.SortStableFunc[[]tuple.Tuple, tuple.Tuple],
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 20; iter++ {
		n := rng.Intn(2000)
		keys := 1 + rng.Int63n(int64(n/3+2))
		in := make([]tuple.Tuple, n)
		for i := range in {
			in[i] = pairSchema.MustMake(rng.Int63n(keys), int64(i))
		}
		for _, mode := range []string{"plain", "dedup", "combine"} {
			for _, rs := range []bool{false, true} {
				for _, mem := range []int{1 << 20, 512, 1024 + 16*rng.Intn(64)} {
					cfg := SortConfig{Keys: []int{0}, MemoryBytes: mem, Dedup: mode == "dedup", ReplacementSelection: rs}
					if mode == "combine" {
						cfg.Combine = sumB
					}
					name := fmt.Sprintf("iter=%d/n=%d/%s/rs=%v/mem=%d", iter, n, mode, rs, mem)
					got, comps, runs := runSort(t, in, cfg)
					for sname, stable := range stables {
						ref, refComps := refExternalSort(pairSchema, in, cfg, dev.PageSize(), stable)
						if !slices.Equal(got, pairRows(ref)) || comps != refComps {
							t.Fatalf("%s: output or comparisons differ from the tuple sort with %s (comps %d vs %d)", name, sname, comps, refComps)
						}
					}
					want, wantComps := refSort(in, mode == "dedup", mode == "combine")
					if runs == 0 && comps != wantComps {
						t.Fatalf("%s: in-memory sort made %d comparisons, reference %d", name, comps, wantComps)
					}
					checkSortRows(t, name, in, got, want, runs > 0, mode)
				}
			}
		}
	}
}

// checkSortRows compares Sort output with the reference. A spilled sort
// does not keep equal keys in input order (replacement selection mixes
// them, and an intermediate merge moves its output run behind the rest), so
// unless Combine folds them it must only match the reference's key
// sequence, with the payloads a permutation of the reference's (plain) or
// each one a tuple of its key (Dedup keeps whichever comes first in the
// merge).
func checkSortRows(t *testing.T, name string, in []tuple.Tuple, got, want [][2]int64, spilled bool, mode string) {
	t.Helper()
	if !spilled || mode == "combine" {
		if !slices.Equal(got, want) {
			t.Fatalf("%s: output differs from the reference", name)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference %d", name, len(got), len(want))
	}
	var gotB, wantB []int64
	for i := range got {
		if got[i][0] != want[i][0] {
			t.Fatalf("%s: key %d at row %d, reference %d", name, got[i][0], i, want[i][0])
		}
		if k := pairSchema.Int64(in[got[i][1]], 0); k != got[i][0] {
			t.Fatalf("%s: row %d carries payload %d of key %d under key %d", name, i, got[i][1], k, got[i][0])
		}
		gotB, wantB = append(gotB, got[i][1]), append(wantB, want[i][1])
	}
	if mode == "plain" {
		slices.Sort(gotB)
		slices.Sort(wantB)
		if !slices.Equal(gotB, wantB) {
			t.Fatalf("%s: payloads are not a permutation of the reference's", name)
		}
	}
}

// TestSpilledSortAllocsFollowRuns bounds a spilled Sort's allocations from
// Open to Close by its runs and run pages: run formation copies tuples into
// the sort's own arena and the merge into per-cursor buffers, so what is
// left is per run file (file, scanner, cursor) and per page fix (frame,
// handle, list element), and nothing per tuple. A run page holds 63 tuples,
// so one allocation per tuple would overshoot the per-page allowance
// several times.
func TestSpilledSortAllocsFollowRuns(t *testing.T) {
	const perRun, perPage = 64, 16
	for _, n := range []int{2000, 8000} {
		for _, dedup := range []bool{false, true} {
			in := randomPairs(n, 41)
			pool, dev := sortTestEnv()
			var c Counters
			var runs int
			allocs := testing.AllocsPerRun(3, func() {
				c = Counters{}
				s := NewSort(NewMemScan(pairSchema, in), SortConfig{
					Keys: []int{0}, Dedup: dedup, MemoryBytes: 4096, Pool: pool, TempDev: dev, Counters: &c,
				})
				if _, err := Drain(s); err != nil {
					t.Fatal(err)
				}
				runs = s.SpilledRuns()
			})
			pages := int(c.Move) // every run page is written once and read once
			t.Logf("n=%d dedup=%v: %.0f allocs, %d runs, %d run pages", n, dedup, allocs, runs, pages)
			if runs < 2 {
				t.Fatalf("n=%d: %d runs; the input must spill", n, runs)
			}
			if limit := float64(perRun*runs + perPage*pages); allocs > limit {
				t.Errorf("n=%d dedup=%v: %.0f allocations for %d runs and %d run pages, over %.0f: allocation grows with tuples",
					n, dedup, allocs, runs, pages, limit)
			}
		}
	}
}
