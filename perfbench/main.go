// Command perfbench is the repository's end-to-end benchmark. One run sets a
// workload up several times from --seed, drives it for --seconds, checks
// every quotient against ground truth computed at set-up, and prints one
// JSON result as its last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload inmem-hash --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 alternates untraced and traced ops and reports the per-layer
// metrics: counts the program exposes, and self times from spans the
// benchmark records around each call it makes into a module. README.md lists
// the workloads, the metrics and which layer metric should move which
// end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// bench is one workload: a set of inputs and the op the benchmark repeats
// over them.
type bench interface {
	// setup builds fresh inputs from seed, computes their ground truth and
	// warms the program (first plan compile, cluster start). It may be
	// called more than once; each call replaces the previous set-up.
	setup(seed int64) error
	// run drives ops until r's deadline.
	run(r *runner)
	// report adds the workload's own metrics, end-to-end and per-layer.
	report(r *runner, m map[string]float64) error
	// close releases everything setup acquired.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"paper-paged", "inmem-hash", "server-ingest", "dist-skewed"}

// newWorkload returns the named workload at full size, or at a size that
// runs in milliseconds when tiny is set (for tests).
func newWorkload(name string, tiny bool) (bench, error) {
	switch name {
	case "paper-paged":
		return newPaged(tiny), nil
	case "inmem-hash":
		return newInmem(tiny), nil
	case "server-ingest":
		return newServed(tiny), nil
	case "dist-skewed":
		return newDist(tiny), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runner drives ops and collects what every workload reports. Its methods
// are safe for concurrent use by an open loop's sender goroutines.
type runner struct {
	deadline time.Time
	tr       *tracer // nil for an untraced run

	mu         sync.Mutex
	attempted  int
	failed     int
	errs       []error // the first few failures, for standard error
	opMS       []float64
	tracedMS   []float64
	tracedOps  []int
	allocBytes uint64
	nextOp     int
}

// traced reports whether op number id is a traced op: in a traced run every
// other op is, so the untraced ones measure the tracing overhead.
func (r *runner) traced(id int) bool { return r.tr != nil && id%2 == 1 }

// newOp numbers the next op and returns its context.
func (r *runner) newOp() *opCtx {
	r.mu.Lock()
	id := r.nextOp
	r.nextOp++
	r.mu.Unlock()
	c := &opCtx{op: id}
	if r.traced(id) {
		c.tr = r.tr
	}
	return c
}

// done accounts one finished op. A failed op (an error, a refused request or
// a wrong quotient) counts as attempted and failed and adds no latency.
func (r *runner) done(c *opCtx, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err)
		}
		return
	}
	if c.tr != nil {
		r.tracedMS = append(r.tracedMS, ms(c.wall))
		r.tracedOps = append(r.tracedOps, c.op)
		return
	}
	r.opMS = append(r.opMS, ms(c.wall))
	r.allocBytes += c.alloc
}

// failedFrac is the share of attempted ops that failed.
func (r *runner) failedFrac() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// closedLoop calls op back to back from one caller until the deadline.
func (r *runner) closedLoop(op func(c *opCtx) error) {
	for time.Now().Before(r.deadline) {
		c := r.newOp()
		r.done(c, op(c))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp describes the conditions of a run; it is printed beside the result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Nproc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Ops        int     `json:"ops"`        // ops attempted
	TimedOps   int     `json:"timed_ops"`  // untraced ops behind the latency metrics
	TracedOps  int     `json:"traced_ops"` // traced ops behind the self times
	Setups     int     `json:"setups"`
	FailedFrac float64 `json:"failed_frac"`
}

// opTimeout bounds one call into the program over a connection, so a hung
// peer fails the op rather than the whole run.
const opTimeout = time.Minute

// setupsPerRun is how many times a run sets its workload up; setup_s is the
// median, which keeps one slow set-up from moving it.
const setupsPerRun = 7

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool // run at a size that takes milliseconds (tests)
	setups   int
	traceOut string // directory for the span file; "" writes none
}

// measure runs one benchmark run and returns its result and stamp.
func measure(cfg config) (*result, *stamp, error) {
	w, err := newWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		return nil, nil, err
	}
	r, m, err := drive(w, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, e := range r.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: op failed: %v\n", cfg.workload, e)
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !cfg.trace {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", cfg.workload, d.name)
		}
		// A per-layer metric a workload does not report is a layer its op
		// bypasses: the layer did no work, so it reads 0.
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	st := &stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Ops:        r.attempted,
		TimedOps:   len(r.opMS),
		TracedOps:  len(r.tracedMS),
		Setups:     cfg.setups,
		FailedFrac: r.failedFrac(),
	}
	if r.tr != nil && cfg.traceOut != "" {
		path := filepath.Join(cfg.traceOut, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.writeJSONL(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return res, st, nil
}

// drive sets w up cfg.setups times, drives the last set-up for cfg.seconds
// and returns the runner and every metric measured, by name.
func drive(w bench, cfg config) (*runner, map[string]float64, error) {
	var setupS []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			w.close()
		}
		// Each set-up starts from a collected heap, so garbage left by the
		// previous one does not land in its time.
		runtime.GC()
		start := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer w.close()

	r := &runner{}
	if cfg.trace {
		r.tr = newTracer()
	}
	gc0 := readGC()
	r.deadline = time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	w.run(r)
	gc1 := readGC()
	if r.attempted == 0 {
		return nil, nil, fmt.Errorf("no op ran in %gs", cfg.seconds)
	}

	m := map[string]float64{
		"setup_s":         median(setupS),
		"op_ms_p50":       median(r.opMS),
		"op_ms_p95":       percentile(r.opMS, 95),
		"ok_frac":         1 - r.failedFrac(),
		"ops_per_s":       0,
		"alloc_mb_per_op": 0,
	}
	if n := len(r.opMS); n > 0 {
		m["ops_per_s"] = float64(n) / (sum(r.opMS) / 1000)
		m["alloc_mb_per_op"] = float64(r.allocBytes) / float64(n) / 1e6
	}
	m["runtime.gc_cycles_per_op"] = float64(gc1.cycles-gc0.cycles) / float64(r.attempted)
	m["runtime.gc_pause_ms_per_op"] = float64(gc1.pauseNs-gc0.pauseNs) / 1e6 / float64(r.attempted)
	if r.tr != nil {
		addTraceMetrics(r, m)
	}
	if err := w.report(r, m); err != nil {
		return nil, nil, err
	}
	return r, m, nil
}

// addTraceMetrics derives the tracing metrics: per-layer self time per traced
// op, spans per traced op, and the traced op time over the untraced one.
func addTraceMetrics(r *runner, m map[string]float64) {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	n := len(r.tracedOps)
	if n == 0 {
		return
	}
	inOps := 0
	for _, s := range spans {
		if s.Op >= 0 {
			inOps++
		}
	}
	m["obs.spans_per_op"] = float64(inOps) / float64(n)
	for _, l := range spanLayers {
		var total int64
		for _, op := range r.tracedOps {
			total += self[op][l]
		}
		m[l+".self_ms_per_op"] = float64(total) / 1e6 / float64(n)
	}
	if u := median(r.opMS); u > 0 {
		m["obs.trace_overhead_frac"] = median(r.tracedMS)/u - 1
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to drive ops")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-dir", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	cfg.setups = setupsPerRun

	res, st, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	stampLine, err := json.Marshal(map[string]any{"stamp": st})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(resLine))
}
