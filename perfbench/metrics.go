package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// metricDef declares one reported metric. The end-to-end set is what a user
// of the division engine sees; the per-layer set explains it. Both lists must
// match BENCHMARK.json (checked by TestMetricHygiene).
type metricDef struct {
	name string
	unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ok_frac", "frac"},
	{"priced_cost_ms", "ms_priced"},
	{"alloc_mb_per_op", "MB"},
}

// spanLayers are the layers whose calls the benchmark makes inside an op, so
// the traced run can charge them self time: the modules it calls, and
// "bench", the open loop's own lateness in sending a request.
var spanLayers = []string{
	"buffer", "exec", "division", "parallel", "netexchange", "server", "bench",
}

var perLayer = append([]metricDef{
	// The tail and the mean rate of the untraced ops. They are reported here,
	// without a bound, because on a shared 2-CPU host they move by 30-55%
	// between runs: stalls from the host arrive in bursts.
	{"op_ms_p95", "ms"},
	{"ops_per_s", "1/s"},

	{"workload.generate_s", "s"},
	{"workload.load_s", "s"},

	{"disk.transfers_per_op", "count"},
	{"disk.seeks_per_op", "count"},
	{"disk.sim_io_ms_per_op", "ms_priced"},

	{"buffer.fixes_per_op", "count"},
	{"buffer.hit_rate", "frac"},
	{"buffer.evictions_per_op", "count"},
	{"buffer.write_backs_per_op", "count"},

	{"exec.comparisons_per_op", "count"},
	{"exec.hashes_per_op", "count"},
	{"exec.moves_per_op", "count"},
	{"exec.bit_ops_per_op", "count"},
	{"storage.scan_ms", "ms"},

	{"division.naive.ms", "ms"},
	{"division.sort-agg-join.ms", "ms"},
	{"division.hash-agg-join.ms", "ms"},
	{"division.hash-division.ms", "ms"},
	{"division.open_ms", "ms"},
	{"division.drain_ms", "ms"},
	{"division.serial_ms_p50", "ms"},
	{"division.spill_kb_per_op", "KB"},
	{"division.repartitions_per_op", "count"},
	{"division.max_depth", "count"},
	{"division.wasted_tuples_per_op", "count"},

	{"parallel.ms_p50", "ms"},
	{"parallel.speedup", "ratio"},
	{"parallel.tuples_shipped_per_op", "count"},
	{"parallel.worker_skew", "ratio"},

	{"netexchange.quotient_ms_p50", "ms"},
	{"netexchange.divisor_ms_p50", "ms"},
	{"netexchange.wire_mb_per_op", "MB"},
	{"netexchange.dividend_kb_per_op", "KB"},
	{"netexchange.filter_kb_per_op", "KB"},
	{"netexchange.frames_per_op", "count"},
	{"netexchange.round_trips_per_op", "count"},
	{"netexchange.filter_drop_frac", "frac"},
	{"netexchange.pipeline_stalls_per_op", "count"},
	{"netexchange.worker_skew", "ratio"},

	{"server.insert_ms_p50", "ms"},
	{"server.queued_ms_p95", "ms"},
	{"server.service_ms_p50", "ms"},
	{"server.cache_hit_rate", "frac"},
	{"rewrite.compiles_per_op", "count"},
	{"server.gen_late_ms_p95", "ms"},

	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"obs.trace_overhead_frac", "frac"},
	{"obs.spans_per_op", "count"},
}, selfTimeDefs()...)

// selfTimeDefs adds one self-time metric per layer: the time an op spends in
// that layer's calls minus the time their child spans cover.
func selfTimeDefs() []metricDef {
	var out []metricDef
	for _, l := range spanLayers {
		out = append(out, metricDef{l + ".self_ms_per_op", "ms"})
	}
	return out
}

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of xs; 0 for
// no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle sample (the mean of the two middle ones for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// skew is the largest share over the mean share: 1 is perfectly balanced.
func skew(shares []int64) float64 {
	if len(shares) == 0 {
		return 0
	}
	var total, max int64
	for _, s := range shares {
		total += s
		if s > max {
			max = s
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(shares)) / float64(total)
}

// allocSample reads the process's cumulative heap allocation from
// runtime/metrics; the difference of two reads is the bytes allocated in
// between, by every goroutine.
var (
	allocMu     sync.Mutex
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
)

func heapAllocBytes() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// gcSnapshot is the collector's cumulative cycle count and pause time.
type gcSnapshot struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{cycles: m.NumGC, pauseNs: m.PauseTotalNs}
}
