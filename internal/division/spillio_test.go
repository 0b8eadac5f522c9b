package division

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/workload"
)

// TestRecursiveSpillMatchesPerRecordAppends pins the I/O of recursive
// partitioning to what it was when every routed tuple was cloned into a
// per-child slice and every spilled one went through Appender.Append: the
// batch-at-a-time routing into flat arenas and the page-granular spill
// staging must write the same spill files, rotate pages at the same tuples
// and so leave pool, device and counted-CPU statistics unchanged. The
// expected values were recorded from the per-record implementation; the
// small pools make evictions and write-backs depend on the exact order of
// page allocations.
func TestRecursiveSpillMatchesPerRecordAppends(t *testing.T) {
	type want struct {
		rows, spilledParts, cells, depth        int
		spillBytes, hash, comp                  int64
		dev                                     disk.Stats
		fixes, hits, misses, evictions, written int
	}
	cases := []struct {
		strategy PartitionStrategy
		s, q     int
		pool     int
		pct      int
		want     want
	}{
		{QuotientPartitioning, 16, 800, 1 << 20, 25, want{400, 6, 8, 1, 196608, 37841, 34791,
			disk.Stats{Seeks: 36, Transfers: 44, Reads: 20, Writes: 24, Bytes: 360448}, 59, 12, 47, 0, 24}},
		{QuotientPartitioning, 16, 800, 1 << 20, 1, want{400, 115, 68, 5, 1261568, 75235, 36583,
			disk.Stats{Seeks: 266, Transfers: 305, Reads: 151, Writes: 154, Bytes: 2498560}, 238, 60, 178, 0, 154}},
		{QuotientPartitioning, 16, 800, 96 << 10, 5, want{400, 8, 8, 1, 245760, 37841, 38234,
			disk.Stats{Seeks: 56, Transfers: 59, Reads: 29, Writes: 30, Bytes: 483328}, 58, 2, 56, 47, 30}},
		{DivisorPartitioning, 200, 300, 1 << 20, 2, want{150, 64, 66, 2, 2015232, 224998, 163243,
			disk.Stats{Seeks: 419, Transfers: 434, Reads: 188, Writes: 246, Bytes: 3555328}, 356, 60, 296, 162, 246}},
	}
	for _, c := range cases {
		inst, err := workload.Generate(workload.Config{DivisorTuples: c.s, QuotientCandidates: c.q,
			FullFraction: 0.5, MatchFraction: 0.8, NoisePerCandidate: 2, DuplicateFactor: 1, Shuffle: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		pool := buffer.New(c.pool)
		rel, err := workload.Load(pool, inst, disk.PaperPageSize)
		if err != nil {
			t.Fatal(err)
		}
		input := int(rel.Dividend.BytesOnDevice() + rel.Divisor.BytesOnDevice())
		temp := disk.NewDevice("temp", disk.PaperPageSize)
		before := pool.Stats()
		ctr := &exec.Counters{}
		sp := Spec{Dividend: exec.NewTableScan(rel.Dividend, false), Divisor: exec.NewTableScan(rel.Divisor, false), DivisorCols: []int{1}}
		q, st, err := DivideRecursive(sp, Env{Pool: pool, TempDev: temp, Counters: ctr}, c.strategy,
			HashDivisionOptions{MemoryBudget: input * c.pct / 100}, RecursiveOptions{})
		if err != nil {
			t.Fatalf("%v %d%%: %v", c.strategy, c.pct, err)
		}
		after := pool.Stats()
		got := want{len(q), st.SpilledPartitions, st.Cells, st.MaxDepth, st.SpillBytes, ctr.Hash, ctr.Comp, temp.Stats(),
			after.Fixes - before.Fixes, after.Hits - before.Hits, after.Misses - before.Misses,
			after.Evictions - before.Evictions, after.WriteBacks - before.WriteBacks}
		if got != c.want {
			t.Errorf("%v |S|=%d pool=%d %d%%:\n got  %+v\n want %+v", c.strategy, c.s, c.pool, c.pct, got, c.want)
		}
	}
}
