package netexchange

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/parallel"
	"repro/internal/tuple"
)

// kernelShape is a dividend layout outside the Table 4 shape (single 8-byte
// divisor and quotient columns), so the division kernel runs its closure
// fallback — or, for 8-byte Char keys, its word-key path on text.
type kernelShape struct {
	name        string
	ds          *tuple.Schema
	divisorCols []int
}

var kernelShapes = []kernelShape{
	{"char-divisor-key", tuple.NewSchema(tuple.Int64Field("student"), tuple.CharField("course", 12)), []int{1}},
	{"two-column-quotient", tuple.NewSchema(tuple.Int64Field("a"), tuple.CharField("b", 3), tuple.Int64Field("s")), []int{2}},
	{"char8-keys", tuple.NewSchema(tuple.CharField("student", 8), tuple.CharField("course", 8)), []int{1}},
}

// shapeSpec generates a shuffled division instance of shape sh: 9 distinct
// divisor tuples, 60 quotient candidates of which about 40% hold every
// divisor tuple and the rest a random subset, plus dividend duplicates and
// noise tuples whose divisor attributes match no divisor tuple (so a filter
// has something to drop).
func shapeSpec(sh kernelShape, seed int64) division.Spec {
	rng := rand.New(rand.NewSource(seed))
	ds := sh.ds
	qCols := ds.Complement(sh.divisorCols)
	fill := func(t tuple.Tuple, cols []int) {
		for _, c := range cols {
			f := ds.Field(c)
			for i := 0; i < f.Width; i++ {
				t[ds.Offset(c)+i] = byte('a' + rng.Intn(26))
			}
		}
	}
	// with copies t's divisor attributes from d, a dividend-shaped tuple.
	with := func(t, d tuple.Tuple) tuple.Tuple {
		out := t.Clone()
		for _, c := range sh.divisorCols {
			copy(out[ds.Offset(c):ds.Offset(c)+ds.Field(c).Width], d[ds.Offset(c):])
		}
		return out
	}
	var divisors []tuple.Tuple // dividend-shaped carriers of the divisor values
	seen := map[string]bool{}
	for len(divisors) < 9 {
		d := ds.New()
		fill(d, sh.divisorCols)
		if k := string(ds.ProjectTuple(d, sh.divisorCols)); !seen[k] {
			seen[k] = true
			divisors = append(divisors, d)
		}
	}
	var dividend []tuple.Tuple
	for c := 0; c < 60; c++ {
		cand := ds.New()
		fill(cand, qCols)
		full := rng.Float64() < 0.4
		for _, d := range divisors {
			if full || rng.Float64() < 0.7 {
				dividend = append(dividend, with(cand, d))
				if rng.Intn(5) == 0 {
					dividend = append(dividend, with(cand, d))
				}
			}
		}
		for n := 0; n < 3; n++ {
			noise := cand.Clone()
			fill(noise, sh.divisorCols)
			if !seen[string(ds.ProjectTuple(noise, sh.divisorCols))] {
				dividend = append(dividend, noise)
			}
		}
	}
	rng.Shuffle(len(dividend), func(i, j int) { dividend[i], dividend[j] = dividend[j], dividend[i] })
	divisor := make([]tuple.Tuple, len(divisors))
	for i, d := range divisors {
		divisor[i] = ds.ProjectTuple(d, sh.divisorCols)
	}
	return division.Spec{
		Dividend:    exec.NewMemScan(ds, dividend),
		Divisor:     exec.NewMemScan(ds.Project(sh.divisorCols), divisor),
		DivisorCols: sh.divisorCols,
	}
}

// TestKernelShapesParity runs every dividend exchange — the in-process
// morsel and coordinator paths and netexchange's pipelined and phased
// engines — over the kernel parity shapes, with both strategies, filtered
// and unfiltered, and checks each quotient against division.Reference. The
// workers of all four share the division kernel and the Router, which for
// these shapes take their compiled-closure paths.
func TestKernelShapesParity(t *testing.T) {
	for si, sh := range kernelShapes {
		spec := func() division.Spec { return shapeSpec(sh, int64(si)+1) }
		ref, err := division.Reference(spec())
		if err != nil {
			t.Fatal(err)
		}
		qs := spec().QuotientSchema()
		if len(ref) == 0 || len(ref) == 60 {
			t.Fatalf("%s: reference quotient has %d of 60 candidates; the instance should split them", sh.name, len(ref))
		}
		check := func(name string, got []tuple.Tuple) {
			t.Helper()
			if !division.EqualTupleSets(qs, got, ref) {
				t.Errorf("%s/%s: quotient (%d tuples) differs from reference (%d)", sh.name, name, len(got), len(ref))
			}
		}
		for _, strategy := range []division.PartitionStrategy{
			division.QuotientPartitioning, division.DivisorPartitioning,
		} {
			for _, filter := range []bool{false, true} {
				for _, path := range []parallel.Path{parallel.PathMorsel, parallel.PathCoordinator} {
					res, err := parallel.Divide(spec(), parallel.Config{
						Workers: 3, Strategy: strategy, Path: path, BitVectorFilter: filter,
						MorselTuples: 64, BatchSize: 16,
					})
					if err != nil {
						t.Fatalf("%s/%v/%v: %v", sh.name, path, strategy, err)
					}
					check(fmt.Sprintf("%v/%v/filter=%v", path, strategy, filter), res.Quotient)
				}
				for _, ship := range []ShipMode{ShipPipelined, ShipPhased} {
					cl, err := StartLocalCluster(2)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Divide(context.Background(), spec(), Config{
						Strategy: strategy, Ship: ship, BitVectorFilter: filter, BatchSize: 16,
					}, cl.Conns())
					cl.Close()
					if err != nil {
						t.Fatalf("%s/%v/%v: %v", sh.name, ship, strategy, err)
					}
					check(fmt.Sprintf("%v/%v/filter=%v", ship, strategy, filter), res.Quotient)
					if filter && res.Network.TuplesFiltered == 0 {
						t.Errorf("%s/%v/%v: the filter dropped no noise tuple", sh.name, ship, strategy)
					}
				}
			}
		}
	}
}
