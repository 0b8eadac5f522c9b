package parallel

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// referenceRoute is the per-tuple routing formula the Router replaced, kept
// here as its specification: hash the divisor attributes with Schema.Hash,
// probe the filter at that hash mod its length, then route on the routing
// columns' hash (or, with none, on the divisor hash) mod k.
func referenceRoute(ds *tuple.Schema, divisorCols, routeCols []int, bv *bitmap.Bitmap, k int, t tuple.Tuple) int {
	h := ds.Hash(t, divisorCols)
	if bv != nil && !bv.Test(int(h%uint64(bv.Len()))) {
		return Filtered
	}
	dest := h
	if len(routeCols) > 0 {
		dest = ds.Hash(t, routeCols)
	}
	return int(dest % uint64(k))
}

// TestRouterMatchesSchemaHash checks, over random tuples, that the compiled
// Router gives every tuple the destination and filter decision of
// referenceRoute: quotient and divisor partitioning, with and without a
// filter, across destination counts. The schemas are the transcript layout
// plus the kernel parity shapes: a Char divisor key, a two-column quotient,
// and 8-byte Char keys.
func TestRouterMatchesSchemaHash(t *testing.T) {
	shapes := []struct {
		name        string
		ds          *tuple.Schema
		divisorCols []int
	}{
		{"transcript", workload.TranscriptSchema, []int{1}},
		{"char-divisor-key", tuple.NewSchema(tuple.Int64Field("student"), tuple.CharField("course", 12)), []int{1}},
		{"two-column-quotient", tuple.NewSchema(tuple.Int64Field("a"), tuple.CharField("b", 3), tuple.Int64Field("s")), []int{2}},
		{"char8-keys", tuple.NewSchema(tuple.CharField("student", 8), tuple.CharField("course", 8)), []int{1}},
	}
	rng := rand.New(rand.NewSource(7))
	for _, sh := range shapes {
		tuples := make([]tuple.Tuple, 2000)
		for i := range tuples {
			tuples[i] = sh.ds.New()
			rng.Read(tuples[i])
		}
		for _, filtered := range []bool{false, true} {
			var bv *bitmap.Bitmap
			if filtered {
				bv = bitmap.New(97)
				for i := 0; i < bv.Len(); i += 2 + rng.Intn(3) {
					bv.Set(i)
				}
			}
			for _, routeCols := range [][]int{sh.ds.Complement(sh.divisorCols), nil} {
				for _, k := range []int{1, 2, 3, 5} {
					name := fmt.Sprintf("%s/filter=%v/route=%v/k=%d", sh.name, filtered, routeCols, k)
					r := NewRouter(sh.ds, sh.divisorCols, routeCols, bv, k)
					drops := 0
					for _, tp := range tuples {
						got, want := r.Route(tp), referenceRoute(sh.ds, sh.divisorCols, routeCols, bv, k, tp)
						if got != want {
							t.Fatalf("%s: tuple %x routed to %d, reference %d", name, tp, got, want)
						}
						if got == Filtered {
							drops++
						}
					}
					if filtered && (drops == 0 || drops == len(tuples)) {
						t.Fatalf("%s: filter dropped %d of %d tuples; the test filter should split them", name, drops, len(tuples))
					}
				}
			}
		}
	}
}
