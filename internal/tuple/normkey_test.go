package tuple

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestNormKeyOrderMatchesCompareFunc checks the normalizer's contract on
// random pairs: LessWords and equality over the encoded keys agree with
// the sign of CompareFunc over the tuples, for int64 keys at
// and around the extremes, CHAR keys of every width class with embedded
// and trailing zero bytes, and multi-column keys listed out of schema order.
func TestNormKeyOrderMatchesCompareFunc(t *testing.T) {
	s := NewSchema(Int64Field("i"), CharField("c1", 1), CharField("c7", 7), CharField("c8", 8),
		CharField("c12", 12), Int64Field("j"), CharField("c17", 17))
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -256, -1, 0, 1, 255, 256, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(5))
	randTuple := func() Tuple {
		tp := s.New()
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			if f.Kind == KindInt64 {
				v := ints[rng.Intn(len(ints))]
				if rng.Intn(3) == 0 {
					v = rng.Int63() - rng.Int63()
				}
				s.SetInt64(tp, i, v)
				continue
			}
			// Bytes from a tiny alphabet, zero included, written raw so zeros
			// can sit anywhere in the field.
			off := s.Offset(i)
			for b := 0; b < rng.Intn(f.Width+1); b++ {
				tp[off+b] = "\x00\x01a\x7f\x80\xff"[rng.Intn(6)]
			}
		}
		return tp
	}
	keys := [][]int{{0}, {5}, {1}, {2}, {3}, {4}, {6}, {4, 0}, {6, 5, 1}, {3, 2, 0, 5}, {5, 4, 3, 2, 1, 0, 6}}
	for _, cols := range keys {
		cmp := s.CompareFunc(cols)
		nk := s.NormKey(cols)
		wantWords := 0
		for _, c := range cols {
			wantWords += (s.Field(c).Width + 7) / 8
		}
		if nk.Words() != wantWords {
			t.Fatalf("cols %v: %d words, want %d", cols, nk.Words(), wantWords)
		}
		ka, kb := make([]uint64, nk.Words()), make([]uint64, nk.Words())
		for i := 0; i < 3000; i++ {
			a, b := randTuple(), randTuple()
			if i%4 == 0 {
				b = a.Clone() // equal keys
				if i%8 == 0 {
					b[rng.Intn(len(b))] ^= 1 << uint(rng.Intn(8)) // or a single bit apart
				}
			}
			nk.Encode(ka, a)
			nk.Encode(kb, b)
			want := cmp(a, b) // -1, 0 or +1
			got := 0
			switch {
			case LessWords(ka, kb):
				got = -1
			case LessWords(kb, ka):
				got = 1
			}
			if got != want || slices.Equal(ka, kb) != (want == 0) {
				t.Fatalf("cols %v: words order %d (equal %v), CompareFunc %d for %s vs %s", cols, got, slices.Equal(ka, kb), want, s.Format(a), s.Format(b))
			}
		}
	}
}
