package division

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exec"
)

// These tests cover §6's fourth question, both tables too large: recursive
// divisor partitioning clusters the divisor until each cluster's table fits
// and partitions each cluster's dividend on the quotient attributes until
// each cell fits, a kd×kq grid sized by the overflow instead of by hand.

func TestCombinedPartitioningMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	var dividend [][2]int64
	divisor := make([]int64, 20)
	for i := range divisor {
		divisor[i] = int64(100 + i)
	}
	for q := 0; q < 80; q++ {
		for _, c := range divisor {
			if rng.Float64() < 0.8 {
				dividend = append(dividend, [2]int64{int64(q), c})
			}
		}
		dividend = append(dividend, [2]int64{int64(q), 777})
	}
	for _, budget := range []int{0, 1 << 10, 2 << 10, 4 << 10} {
		for _, fanOut := range []int{2, 3, 5} {
			recursiveCheck(t, dividend, divisor, DivisorPartitioning, budget, fanOut)
		}
	}
}

func TestCombinedPartitioningEmptyInputs(t *testing.T) {
	for _, strat := range []PartitionStrategy{QuotientPartitioning, DivisorPartitioning} {
		got, _, err := DivideRecursive(makeSpec(nil, nil), testEnv(), strat,
			HashDivisionOptions{MemoryBudget: 1 << 10}, RecursiveOptions{MaxFanOut: 2})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(got) != 0 {
			t.Errorf("%v: empty inputs gave %v", strat, got)
		}
	}
}

// TestCombinedPartitioningNeedsTempDev: a budget that forces spilling fails
// with the typed budget error when the environment has nowhere to spill.
func TestCombinedPartitioningNeedsTempDev(t *testing.T) {
	var dividend [][2]int64
	divisor := []int64{101, 102}
	for q := 0; q < 200; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	_, _, err := DivideRecursive(makeSpec(dividend, divisor), Env{}, DivisorPartitioning,
		HashDivisionOptions{MemoryBudget: 256}, RecursiveOptions{MaxFanOut: 2})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget without a temp device, got %v", err)
	}
}

// TestCombinedBoundsTableMemory demonstrates the point of the grid: with a
// budget too small for one full divisor table plus one full quotient table,
// the recursion splits both sides until every cell fits.
func TestCombinedBoundsTableMemory(t *testing.T) {
	var dividend [][2]int64
	divisor := make([]int64, 200)
	for i := range divisor {
		divisor[i] = int64(i)
	}
	for q := 0; q < 300; q++ {
		for _, c := range divisor {
			dividend = append(dividend, [2]int64{int64(q), c})
		}
	}
	const budget = 16 * 1024
	plain := NewHashDivision(makeSpec(dividend, divisor), Env{}, HashDivisionOptions{MemoryBudget: budget})
	if _, err := exec.Collect(plain); err == nil {
		t.Fatal("plain hash-division should exceed the budget")
	}
	st := recursiveCheck(t, dividend, divisor, DivisorPartitioning, budget, 4)
	if st.DivisorLeaves < 2 || st.MaxQuotientCells < 2 {
		t.Errorf("grid = %d divisor leaves × %d quotient cells, want both split", st.DivisorLeaves, st.MaxQuotientCells)
	}
	if st.Leaves.PeakTableBytes > budget {
		t.Errorf("largest cell peaked at %d bytes, budget %d", st.Leaves.PeakTableBytes, budget)
	}
}

// Property: any budget from 512 bytes up and any fan-out cap give the
// reference quotient.
func TestQuickCombinedEquivalence(t *testing.T) {
	f := func(raw []byte, nDivisorRaw, budgetRaw, fanRaw uint8) bool {
		dividend, divisor := quickInstance(raw, nDivisorRaw)
		budget := 512 + int(budgetRaw)*16
		ref, err := Reference(makeSpec(dividend, divisor))
		if err != nil {
			return false
		}
		got, _, err := DivideRecursive(makeSpec(dividend, divisor), testEnv(), DivisorPartitioning,
			HashDivisionOptions{MemoryBudget: budget}, RecursiveOptions{MaxFanOut: int(fanRaw%4) + 2})
		return err == nil && EqualTupleSets(makeSpec(dividend, divisor).QuotientSchema(), got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
