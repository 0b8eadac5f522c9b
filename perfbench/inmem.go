package main

import (
	"context"
	"fmt"
	"io"
	"time"

	reldiv "repro"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// inmem is the inmem-hash workload: one op is one serial reldiv.Divide and
// one reldiv.Divide with Workers: 2 over the same in-memory relations, which
// fit in memory, so the buffer pool, the devices and sorting are bypassed.
// The traced ops make the same two queries through the next layer down:
// division.New, Open and Next for the serial one and parallel.DivideContext
// for the parallel one.
type inmem struct {
	cfg workload.Config

	inst              *workload.Instance
	dividend, divisor *reldiv.Relation
	alg               division.Algorithm // the serial plan reldiv's Auto picks

	generateS, loadS []float64
	serialMS, parMS  []float64
	openMS, drainMS  []float64
	shipped          []float64
	workerSkew       []float64
}

func newInmem(tiny bool) *inmem {
	cfg := workload.Config{
		DivisorTuples:      100,
		QuotientCandidates: 4000,
		FullFraction:       0.5,
		MatchFraction:      0.8,
		NoisePerCandidate:  5,
		Shuffle:            true,
	}
	if tiny {
		cfg.DivisorTuples, cfg.QuotientCandidates = 10, 40
	}
	return &inmem{cfg: cfg}
}

func (w *inmem) setup(seed int64) error {
	cfg := w.cfg
	cfg.Seed = seed
	var inst *workload.Instance
	d, err := diag(nil, "workload", "workload.Generate", func() (err error) {
		inst, err = generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	w.generateS = append(w.generateS, d.Seconds())
	var dividend, divisor *reldiv.Relation
	d, err = diag(nil, "reldiv", "reldiv.Insert", func() error {
		dividend, divisor, err = relations(inst)
		return err
	})
	if err != nil {
		return err
	}
	w.loadS = append(w.loadS, d.Seconds())
	plan, err := reldiv.Explain(dividend, divisor, nil)
	if err != nil {
		return err
	}
	alg, err := divisionAlg(plan.Chosen)
	if err != nil {
		return err
	}
	w.inst, w.dividend, w.divisor, w.alg = inst, dividend, divisor, alg
	// Warm the allocator and the code paths with one untimed op.
	return w.op(&opCtx{op: -1}, false)
}

// relations copies a generated instance into reldiv relations, the library
// user's input form.
func relations(inst *workload.Instance) (dividend, divisor *reldiv.Relation, err error) {
	dividend = reldiv.NewRelation("transcript", reldiv.Int64Col("student_id"), reldiv.Int64Col("course_no"))
	divisor = reldiv.NewRelation("courses", reldiv.Int64Col("course_no"))
	ts, cs := workload.TranscriptSchema, workload.CourseSchema
	for _, t := range inst.Dividend {
		if err := dividend.Insert(ts.Int64(t, 0), ts.Int64(t, 1)); err != nil {
			return nil, nil, err
		}
	}
	for _, t := range inst.Divisor {
		if err := divisor.Insert(cs.Int64(t, 0)); err != nil {
			return nil, nil, err
		}
	}
	return dividend, divisor, nil
}

// divisionAlg maps a reldiv algorithm to the division package's.
func divisionAlg(a reldiv.Algorithm) (division.Algorithm, error) {
	for _, alg := range division.Algorithms {
		if alg.String() == a.String() {
			return alg, nil
		}
	}
	return 0, fmt.Errorf("no division algorithm named %q", a)
}

func (w *inmem) close() {}

func (w *inmem) run(r *runner) {
	r.closedLoop(func(c *opCtx) error { return w.op(c, true) })
}

// op runs the serial and the two-worker query and checks both quotients.
func (w *inmem) op(c *opCtx, keep bool) error {
	t0 := c.wall
	serial, err := w.serial(c, keep)
	if err != nil {
		return fmt.Errorf("serial: %w", err)
	}
	t1 := c.wall
	par, err := w.twoWorkers(c, keep)
	if err != nil {
		return fmt.Errorf("2 workers: %w", err)
	}
	if err := checkIDs("serial", serial, w.inst.QuotientIDs); err != nil {
		return err
	}
	if err := checkIDs("2 workers", par, w.inst.QuotientIDs); err != nil {
		return err
	}
	if keep && c.tr == nil {
		w.serialMS = append(w.serialMS, ms(t1-t0))
		w.parMS = append(w.parMS, ms(c.wall-t1))
	}
	return nil
}

// serial runs the serial query: reldiv.Divide, or its layers when traced.
func (w *inmem) serial(c *opCtx, keep bool) ([]int64, error) {
	if c.tr != nil {
		return w.tracedSerial(c, keep)
	}
	return w.divide(c, nil)
}

// twoWorkers runs the two-worker query: reldiv.Divide, or its layers when
// traced.
func (w *inmem) twoWorkers(c *opCtx, keep bool) ([]int64, error) {
	if c.tr != nil {
		return w.tracedParallel(c, keep)
	}
	return w.divide(c, &reldiv.Options{Workers: 2})
}

func (w *inmem) divide(c *opCtx, opts *reldiv.Options) ([]int64, error) {
	var q *reldiv.Relation
	err := c.call("reldiv", "reldiv.Divide", func() (err error) {
		q, err = reldiv.Divide(w.dividend, w.divisor, nil, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]int64, q.NumRows())
	for i := range out {
		out[i] = q.Row(i)[0].(int64)
	}
	return out, nil
}

// tracedSerial is reldiv's serial path spelled out: a fresh pool and temp
// device, the planned algorithm over memory scans, then Open and Next.
func (w *inmem) tracedSerial(c *opCtx, keep bool) ([]int64, error) {
	var got []tuple.Tuple
	var openD, drainD time.Duration
	sp := memSpec(w.inst)
	err := c.call("division", "division.serial", func() error {
		env := division.Env{
			Pool:            buffer.New(buffer.PaperPoolBytes),
			TempDev:         disk.NewDevice("temp", disk.PaperRunPageSize),
			ExpectedDivisor: len(w.inst.Divisor),
		}
		var op exec.Operator
		if err := c.call("division", "division.New", func() (err error) {
			op, err = division.New(w.alg, sp, env)
			return err
		}); err != nil {
			return err
		}
		defer op.Close()
		start := time.Now()
		err := c.call("division", "division.Open", op.Open)
		openD = time.Since(start)
		if err != nil {
			return err
		}
		start = time.Now()
		defer func() { drainD = time.Since(start) }()
		return c.call("division", "division.Next", func() error {
			for {
				t, err := op.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				got = append(got, t.Clone())
			}
		})
	})
	if err != nil {
		return nil, err
	}
	if keep {
		w.openMS = append(w.openMS, ms(openD))
		w.drainMS = append(w.drainMS, ms(drainD))
	}
	return firstColumn(sp.QuotientSchema(), got), nil
}

// tracedParallel is reldiv's Workers: 2 path spelled out.
func (w *inmem) tracedParallel(c *opCtx, keep bool) ([]int64, error) {
	var res *parallel.Result
	sp := memSpec(w.inst)
	err := c.call("parallel", "parallel.DivideContext", func() (err error) {
		res, err = parallel.DivideContext(context.Background(), sp, parallel.Config{
			Workers:  2,
			Strategy: division.QuotientPartitioning,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	if keep {
		w.shipped = append(w.shipped, float64(res.Network.TuplesShipped))
		shares := make([]int64, len(res.Workers))
		for i, ws := range res.Workers {
			shares[i] = ws.DividendTuples
		}
		w.workerSkew = append(w.workerSkew, skew(shares))
	}
	return firstColumn(sp.QuotientSchema(), res.Quotient), nil
}

func (w *inmem) report(r *runner, m map[string]float64) error {
	priced, err := pricedSerial(w.inst)
	if err != nil {
		return err
	}
	m["priced_cost_ms"] = priced
	m["workload.generate_s"] = median(w.generateS)
	m["workload.load_s"] = median(w.loadS)
	m["division.serial_ms_p50"] = median(w.serialMS)
	m["parallel.ms_p50"] = median(w.parMS)
	if p := median(w.parMS); p > 0 {
		m["parallel.speedup"] = median(w.serialMS) / p
	}
	m["division.open_ms"] = median(w.openMS)
	m["division.drain_ms"] = median(w.drainMS)
	m["parallel.tuples_shipped_per_op"] = median(w.shipped)
	m["parallel.worker_skew"] = median(w.workerSkew)
	return nil
}
