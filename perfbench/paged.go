package main

import (
	"fmt"
	"strings"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// pagedAlgs are the four generally correct algorithms of one Table 4 row, in
// the paper's column order.
var pagedAlgs = []division.Algorithm{
	division.AlgNaive, division.AlgSortAggJoin, division.AlgHashAggJoin, division.AlgHashDivision,
}

// paged is the paper-paged workload: one op is one Table 4 row in the §5.1
// geometry (8 KB pages, a 256 KB LRU pool, 100 KB sort space, 1 KB sort
// runs), each algorithm over freshly loaded heap files on a cold pool, exactly
// as internal/bench's RunCell does. Reloading between algorithms is not
// charged to the op.
type paged struct {
	size int // |S| = |Q|
	inst *workload.Instance

	generateS, loadS []float64

	algMS  map[division.Algorithm][]float64
	priced []float64 // Table 1 counted CPU + Table 3 simulated I/O, per op
	scanMS []float64

	// Totals over the measured ops, for the per-op layer counts.
	ops     int
	io      disk.Stats
	pool    buffer.Stats
	counted exec.Counters
}

func newPaged(tiny bool) *paged {
	w := &paged{size: 400}
	if tiny {
		w.size = 25
	}
	return w
}

func (w *paged) setup(seed int64) error {
	var inst *workload.Instance
	d, err := diag(nil, "workload", "workload.Generate", func() (err error) {
		inst, err = workload.Generate(workload.PaperCase(w.size, w.size, seed))
		return err
	})
	if err != nil {
		return err
	}
	w.generateS = append(w.generateS, d.Seconds())
	d, err = diag(nil, "workload", "workload.Load", func() error {
		_, err := workload.Load(buffer.New(buffer.PaperPoolBytes), inst, disk.PaperPageSize)
		return err
	})
	if err != nil {
		return err
	}
	w.loadS = append(w.loadS, d.Seconds())
	w.inst = inst
	w.algMS = make(map[division.Algorithm][]float64)
	return nil
}

func (w *paged) close() {}

func (w *paged) run(r *runner) {
	r.closedLoop(func(c *opCtx) error {
		if err := w.op(c); err != nil {
			return err
		}
		if c.tr != nil {
			return w.scan(c.tr)
		}
		return nil
	})
}

// op runs the four algorithms of one Table 4 row and checks each quotient.
func (w *paged) op(c *opCtx) error {
	var io disk.Stats
	var pool buffer.Stats
	var counted exec.Counters
	units := costmodel.PaperUnits()
	priced := 0.0
	algMS := make([]float64, len(pagedAlgs))
	for i, alg := range pagedAlgs {
		bp := buffer.New(buffer.PaperPoolBytes)
		rel, err := workload.Load(bp, w.inst, disk.PaperPageSize)
		if err != nil {
			return err
		}
		bp.ResetStats()
		tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)
		counters := &exec.Counters{}
		env := division.Env{
			Pool:               bp,
			TempDev:            tempDev,
			SortBytes:          buffer.PaperSortBytes,
			Counters:           counters,
			AssumeUniqueInputs: true,
			ExpectedDivisor:    w.size,
			ExpectedQuotient:   w.size,
		}
		sp := division.Spec{
			Dividend:    exec.NewTableScan(rel.Dividend, false),
			Divisor:     exec.NewTableScan(rel.Divisor, true),
			DivisorCols: []int{1},
		}
		var got []tuple.Tuple
		before := c.wall
		err = c.call("division", "division."+alg.String(), func() error {
			var op exec.Operator
			if err := c.call("division", "division.New", func() (err error) {
				op, err = division.New(alg, sp, env)
				return err
			}); err != nil {
				return err
			}
			return c.call("exec", "exec.Collect", func() (err error) {
				got, err = exec.Collect(op)
				return err
			})
		})
		if err != nil {
			return fmt.Errorf("%v: %w", alg, err)
		}
		algMS[i] = ms(c.wall - before)
		if err := checkIDs(alg.String(), firstColumn(sp.QuotientSchema(), got), w.inst.QuotientIDs); err != nil {
			return err
		}
		devs := rel.DividendDev.Stats().Add(rel.DivisorDev.Stats()).Add(tempDev.Stats())
		io = io.Add(devs)
		addPoolStats(&pool, bp.Stats())
		counted.Add(*counters)
		priced += counters.CostMS(units.Comp, units.Hash, units.Move, units.Bit) + devs.TotalCostMS(disk.PaperCost())
	}
	for i, alg := range pagedAlgs {
		w.algMS[alg] = append(w.algMS[alg], algMS[i])
	}
	w.priced = append(w.priced, priced)
	w.ops++
	w.io = w.io.Add(io)
	addPoolStats(&w.pool, pool)
	w.counted.Add(counted)
	return nil
}

// addPoolStats adds the counts the benchmark reports from b to a.
func addPoolStats(a *buffer.Stats, b buffer.Stats) {
	a.Fixes += b.Fixes
	a.Hits += b.Hits
	a.Evictions += b.Evictions
	a.WriteBacks += b.WriteBacks
}

// scan times draining the dividend's TableScan alone over a freshly loaded
// copy: the storage layer's share, outside any op.
func (w *paged) scan(tr *tracer) error {
	rel, err := workload.Load(buffer.New(buffer.PaperPoolBytes), w.inst, disk.PaperPageSize)
	if err != nil {
		return err
	}
	var n int
	d, err := diag(tr, "storage", "storage.TableScan", func() (err error) {
		n, err = exec.Drain(exec.NewTableScan(rel.Dividend, false))
		return err
	})
	if err != nil {
		return err
	}
	if n != len(w.inst.Dividend) {
		return fmt.Errorf("dividend scan returned %d tuples, want %d", n, len(w.inst.Dividend))
	}
	w.scanMS = append(w.scanMS, ms(d))
	return nil
}

func (w *paged) report(r *runner, m map[string]float64) error {
	m["workload.generate_s"] = median(w.generateS)
	m["workload.load_s"] = median(w.loadS)
	m["priced_cost_ms"] = median(w.priced)
	for _, alg := range pagedAlgs {
		name := strings.ReplaceAll(alg.String(), "+", "-")
		m["division."+name+".ms"] = median(w.algMS[alg])
	}
	m["storage.scan_ms"] = median(w.scanMS)
	if w.ops == 0 {
		return nil
	}
	n := float64(w.ops)
	m["disk.transfers_per_op"] = float64(w.io.Transfers) / n
	m["disk.seeks_per_op"] = float64(w.io.Seeks) / n
	m["disk.sim_io_ms_per_op"] = w.io.TotalCostMS(disk.PaperCost()) / n
	m["buffer.fixes_per_op"] = float64(w.pool.Fixes) / n
	if w.pool.Fixes > 0 {
		m["buffer.hit_rate"] = float64(w.pool.Hits) / float64(w.pool.Fixes)
	}
	m["buffer.evictions_per_op"] = float64(w.pool.Evictions) / n
	m["buffer.write_backs_per_op"] = float64(w.pool.WriteBacks) / n
	m["exec.comparisons_per_op"] = float64(w.counted.Comp) / n
	m["exec.hashes_per_op"] = float64(w.counted.Hash) / n
	m["exec.moves_per_op"] = float64(w.counted.Move) / n
	m["exec.bit_ops_per_op"] = float64(w.counted.Bit) / n
	return nil
}
