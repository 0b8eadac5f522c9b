package main

import (
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// generate builds the instance and lays its dividend out in memory in scan
// order, as loading it into a relation would: the generator shuffles tuple
// pointers, and scanning tuples scattered across the heap would cost cache
// misses no loaded relation has.
func generate(cfg workload.Config) (*workload.Instance, error) {
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	for i, t := range inst.Dividend {
		inst.Dividend[i] = t.Clone()
	}
	return inst, nil
}

// memSpec is the in-memory division spec over the instance's tuples.
func memSpec(inst *workload.Instance) division.Spec {
	return division.Spec{
		Dividend:    exec.NewMemScan(workload.TranscriptSchema, inst.Dividend),
		Divisor:     exec.NewMemScan(workload.CourseSchema, inst.Divisor),
		DivisorCols: []int{1},
	}
}

// pricedSerial prices one serial hash-division over the instance with the
// paper's Table 1 units and Table 3 device parameters. The count is exact, so
// it is taken once per run, after the ops; the workloads whose inputs live in
// memory report it as their priced_cost_ms.
func pricedSerial(inst *workload.Instance) (float64, error) {
	counters := &exec.Counters{}
	tempDev := disk.NewDevice("temp", disk.PaperRunPageSize)
	env := division.Env{
		Pool:            buffer.New(buffer.PaperPoolBytes),
		TempDev:         tempDev,
		Counters:        counters,
		ExpectedDivisor: len(inst.Divisor),
	}
	if _, err := division.Run(division.AlgHashDivision, memSpec(inst), env); err != nil {
		return 0, fmt.Errorf("priced run: %w", err)
	}
	u := costmodel.PaperUnits()
	return counters.CostMS(u.Comp, u.Hash, u.Move, u.Bit) + tempDev.Stats().TotalCostMS(disk.PaperCost()), nil
}

// firstColumn returns the int64 first column of each tuple: the student ids
// of a quotient.
func firstColumn(s *tuple.Schema, ts []tuple.Tuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = s.Int64(t, 0)
	}
	return out
}

// checkIDs compares a quotient's student ids, in any order, with the sorted
// ground truth.
func checkIDs(what string, got, want []int64) error {
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(want) {
		return fmt.Errorf("%s: quotient has %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: quotient row %d is %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}
