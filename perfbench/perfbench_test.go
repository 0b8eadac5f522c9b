package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	table4 "repro/internal/bench"
	"repro/internal/division"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// declared lists, per workload, the per-layer metrics its report measures.
// The metrics every workload gets (runtime, tracing, self times) are not
// repeated here.
var declared = map[string][]string{
	"paper-paged": {
		"workload.generate_s", "workload.load_s",
		"disk.transfers_per_op", "disk.seeks_per_op", "disk.sim_io_ms_per_op",
		"buffer.fixes_per_op", "buffer.hit_rate", "buffer.evictions_per_op", "buffer.write_backs_per_op",
		"exec.comparisons_per_op", "exec.hashes_per_op", "exec.moves_per_op", "exec.bit_ops_per_op",
		"storage.scan_ms",
		"division.naive.ms", "division.sort-agg-join.ms", "division.hash-agg-join.ms", "division.hash-division.ms",
	},
	"inmem-hash": {
		"workload.generate_s", "workload.load_s",
		"division.open_ms", "division.drain_ms", "division.serial_ms_p50",
		"parallel.ms_p50", "parallel.speedup", "parallel.tuples_shipped_per_op", "parallel.worker_skew",
	},
	"server-ingest": {
		"workload.generate_s", "workload.load_s",
		"division.spill_kb_per_op", "division.repartitions_per_op", "division.max_depth", "division.wasted_tuples_per_op",
		"server.insert_ms_p50", "server.queued_ms_p95", "server.service_ms_p50", "server.cache_hit_rate",
		"rewrite.compiles_per_op", "server.gen_late_ms_p95",
	},
	"dist-skewed": {
		"workload.generate_s", "workload.load_s",
		"netexchange.quotient_ms_p50", "netexchange.divisor_ms_p50", "netexchange.wire_mb_per_op",
		"netexchange.dividend_kb_per_op", "netexchange.filter_kb_per_op", "netexchange.frames_per_op",
		"netexchange.round_trips_per_op", "netexchange.filter_drop_frac", "netexchange.pipeline_stalls_per_op",
		"netexchange.worker_skew",
	},
}

// everyWorkload are the metrics drive and addTraceMetrics produce for any
// workload in a traced run.
func everyWorkload() []string {
	out := []string{
		"op_ms_p95", "ops_per_s", "runtime.gc_cycles_per_op", "runtime.gc_pause_ms_per_op",
		"obs.trace_overhead_frac", "obs.spans_per_op",
	}
	for _, d := range selfTimeDefs() {
		out = append(out, d.name)
	}
	return out
}

func tinyConfig(name string, trace bool, seconds float64) config {
	return config{workload: name, seed: 1, seconds: seconds, trace: trace, tiny: true, setups: 2}
}

func TestMetricHygiene(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if bf.EndToEnd[i].Name != d.name || bf.EndToEnd[i].Unit != d.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s",
				i, bf.EndToEnd[i].Name, bf.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	for i, d := range perLayer {
		if bf.PerLayer[i].Name != d.name || bf.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, program %s/%s",
				i, bf.PerLayer[i].Name, bf.PerLayer[i].Unit, d.name, d.unit)
		}
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}

	// Every per-layer metric is measured by some workload.
	covered := map[string]bool{}
	for _, names := range declared {
		for _, n := range names {
			covered[n] = true
		}
	}
	for _, n := range everyWorkload() {
		covered[n] = true
	}
	for _, d := range perLayer {
		if !covered[d.name] {
			t.Errorf("no workload measures per-layer metric %s", d.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at tiny size, untraced and
// traced: each run must be correct, report every end-to-end metric as a
// positive number, report every per-layer metric, and actually measure the
// per-layer metrics its workload declares. All eight runs take seconds.
func TestSmokeAllWorkloads(t *testing.T) {
	start := time.Now()
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, st, err := measure(tinyConfig(name, trace, 0.3))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if st.Gomaxprocs < 1 || st.Nproc < 1 || st.GoVersion == "" || st.Ops != res.Attempted || st.Seed != 1 {
				t.Errorf("%s trace=%v: incomplete stamp %+v", name, trace, st)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v.Value)
				}
			}
		}
		w, err := newWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		_, m, err := drive(w, tinyConfig(name, true, 0.3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, n := range append(declared[name], everyWorkload()...) {
			if _, ok := m[n]; !ok {
				t.Errorf("%s declares %s but did not measure it", name, n)
			}
		}
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("tiny smoke runs took %v, want seconds", d)
	}
}

// wrongTruth wraps a workload and corrupts its ground truth after each
// set-up, so every op's check must fail.
type wrongTruth struct {
	bench
	corrupt func()
}

func (w wrongTruth) setup(seed int64) error {
	if err := w.bench.setup(seed); err != nil {
		return err
	}
	w.corrupt()
	return nil
}

// TestWrongExpectationFailsEveryOp feeds each workload a wrong expected
// quotient: every op that returns a quotient must count as failed (so
// failed_frac is 1 wherever every op divides), and the run must go on rather
// than abort.
func TestWrongExpectationFailsEveryOp(t *testing.T) {
	cases := map[string]func(w bench) wrongTruth{
		"paper-paged": func(w bench) wrongTruth {
			p := w.(*paged)
			return wrongTruth{w, func() { p.inst.QuotientIDs = p.inst.QuotientIDs[1:] }}
		},
		"inmem-hash": func(w bench) wrongTruth {
			p := w.(*inmem)
			return wrongTruth{w, func() { p.inst.QuotientIDs = append(p.inst.QuotientIDs, 1<<40) }}
		},
		"server-ingest": func(w bench) wrongTruth {
			p := w.(*served)
			return wrongTruth{w, func() { p.base[1<<40] = true }}
		},
		"dist-skewed": func(w bench) wrongTruth {
			p := w.(*dist)
			return wrongTruth{w, func() { p.inst.QuotientIDs[0]-- }}
		},
	}
	for _, name := range workloadNames {
		w, err := newWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := cases[name](w)
		// Set-up must get through once: corrupt only after the warm-up ran.
		cfg := tinyConfig(name, false, 0.3)
		cfg.setups = 1
		r, _, err := drive(wrapped, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := r.attempted
		if p, ok := w.(*served); ok {
			// Inserts carry no quotient to check; every divide must fail.
			for _, ins := range p.inserted {
				if !ins.acked.IsZero() {
					want--
				}
			}
		}
		if r.attempted < 2 || r.failed != want {
			t.Errorf("%s: attempted %d, failed %d; want %d failed", name, r.attempted, r.failed, want)
		}
		if want == r.attempted && r.failedFrac() != 1 {
			t.Errorf("%s: failed_frac %g, want 1", name, r.failedFrac())
		}
	}
}

// TestTracedSelfTimesSumToOpTime checks the trace's accounting. Within a
// traced op the layer self times must add up to the op's measured time
// (spans cover every call the op makes; 1% slack for clock reads), and the
// median traced op must match the median untraced op within 25%: the
// tracing overhead plus run-to-run noise of millisecond-sized tiny ops on a
// shared machine. obs.trace_overhead_frac reports the same ratio.
func TestTracedSelfTimesSumToOpTime(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, true)
		if err != nil {
			t.Fatal(err)
		}
		r, m, err := drive(w, tinyConfig(name, true, 1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		self := selfTimes(r.tr.snapshot())
		var sums []float64
		for i, op := range r.tracedOps {
			total := 0.0
			for _, ns := range self[op] {
				total += float64(ns) / 1e6
			}
			if want := r.tracedMS[i]; math.Abs(total-want) > 0.01*want+0.005 {
				t.Errorf("%s op %d: self times sum to %.4f ms, op took %.4f ms", name, op, total, want)
			}
			sums = append(sums, total)
		}
		untraced := median(r.opMS)
		ratio := median(sums) / untraced
		if len(sums) == 0 || math.Abs(ratio-1) > 0.25 {
			t.Errorf("%s: traced self times %.4f ms over untraced op %.4f ms = %.3f, want within 25%% of 1",
				name, median(sums), untraced, ratio)
		}
		if got := m["obs.trace_overhead_frac"]; math.Abs(got-(median(r.tracedMS)/untraced-1)) > 1e-9 {
			t.Errorf("%s: obs.trace_overhead_frac = %g, want %g", name, got, median(r.tracedMS)/untraced-1)
		}
	}
}

// TestPricedCostIsTable4Row checks that one paper-paged op prices exactly
// the four Table 4 cells internal/bench reproduces at |S|=|Q|=400, seed 1.
func TestPricedCostIsTable4Row(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Table 4 row twice")
	}
	want := 0.0
	cfg := table4.PaperConfig()
	for _, alg := range pagedAlgs {
		cell, err := table4.RunCell(alg, 400, 400, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want += cell.TotalMS()
	}
	w := newPaged(false)
	if err := w.setup(cfg.Seed); err != nil {
		t.Fatal(err)
	}
	if err := w.op(&opCtx{}); err != nil {
		t.Fatal(err)
	}
	if got := w.priced[0]; got != want {
		t.Fatalf("priced cost %v, Table 4 row sums to %v", got, want)
	}
	if len(pagedAlgs) != 4 || pagedAlgs[3] != division.AlgHashDivision {
		t.Fatalf("paper-paged runs %v, want the four generally correct algorithms", pagedAlgs)
	}
}

func TestCovered(t *testing.T) {
	parent := span{ID: 0, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10..40 and 90..100)", got)
	}
}
