package reldiv

import (
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// This file holds the parity harness's second oracle: division evaluated
// through the §1 identity
//
//	R ÷ S = π_q(R) − π_q( (π_q(R) × S) − π_{q,d}(R) )
//
// which the paper dismisses as "of merely theoretical validity since the
// equivalent expression contains a Cartesian product operator". It shares
// nothing with the four algorithms or with division.Reference beyond the
// operators' hash tables, so it is an independent check of both; it is
// hopeless for performance (the product has |Q|·|S| tuples regardless of
// the dividend's size), so it lives only in tests.

var errSetOpNotOpen = errors.New("set operator used before Open")

// crossProduct is the Cartesian product: every left tuple paired with every
// right tuple. The right side is materialized in memory at Open.
type crossProduct struct {
	left, right exec.Operator
	schema      *tuple.Schema
	rightRows   []tuple.Tuple
	cur         tuple.Tuple
	idx         int
	opened      bool
}

func newCrossProduct(left, right exec.Operator) *crossProduct {
	return &crossProduct{
		left:   left,
		right:  right,
		schema: left.Schema().Concat(right.Schema()),
	}
}

func (c *crossProduct) Schema() *tuple.Schema { return c.schema }

func (c *crossProduct) Open() error {
	rows, err := exec.Collect(c.right)
	if err != nil {
		return err
	}
	c.rightRows = rows
	c.cur = nil
	c.idx = 0
	c.opened = true
	return c.left.Open()
}

func (c *crossProduct) Next() (tuple.Tuple, error) {
	if !c.opened {
		return nil, errSetOpNotOpen
	}
	if len(c.rightRows) == 0 {
		return nil, io.EOF
	}
	for {
		if c.cur != nil && c.idx < len(c.rightRows) {
			out := tuple.ConcatTuples(c.cur, c.rightRows[c.idx])
			c.idx++
			return out, nil
		}
		t, err := c.left.Next()
		if err != nil {
			return nil, err
		}
		c.cur = t.Clone()
		c.idx = 0
	}
}

func (c *crossProduct) Close() error {
	if !c.opened {
		return nil
	}
	c.opened = false
	c.rightRows = nil
	return c.left.Close()
}

// difference is the set difference left − right over full tuples: left
// tuples (deduplicated) that do not appear in right. The right side is
// hashed at Open.
type difference struct {
	left, right exec.Operator
	counters    *exec.Counters
	rightSet    *hashtab.Table
	seen        *hashtab.Table
	opened      bool
}

// newDifference builds left − right; both inputs must share a record width.
func newDifference(left, right exec.Operator, counters *exec.Counters) *difference {
	if left.Schema().Width() != right.Schema().Width() {
		panic("difference inputs must have equal record width")
	}
	return &difference{left: left, right: right, counters: counters}
}

func (d *difference) Schema() *tuple.Schema { return d.left.Schema() }

func (d *difference) Open() error {
	d.rightSet = hashtab.NewForExpected(d.right.Schema(), 256, 2)
	d.seen = hashtab.NewForExpected(d.left.Schema(), 256, 2)
	if err := exec.ForEach(d.right, func(t tuple.Tuple) error {
		d.rightSet.GetOrInsert(t)
		return nil
	}); err != nil {
		return err
	}
	d.opened = true
	return d.left.Open()
}

func (d *difference) Next() (tuple.Tuple, error) {
	if !d.opened {
		return nil, errSetOpNotOpen
	}
	for {
		t, err := d.left.Next()
		if err != nil {
			return nil, err
		}
		if d.rightSet.Lookup(t) >= 0 {
			continue
		}
		if _, created := d.seen.GetOrInsert(t); created {
			return t, nil
		}
	}
}

func (d *difference) Close() error {
	if !d.opened {
		return nil
	}
	d.opened = false
	if d.counters != nil {
		for _, tab := range []*hashtab.Table{d.rightSet, d.seen} {
			st := tab.Stats()
			d.counters.Hash += st.Hashes
			d.counters.Comp += st.Comparisons
		}
	}
	d.rightSet, d.seen = nil, nil
	return d.left.Close()
}

// algebraicDivide evaluates sp through the §1 identity. The identity yields
// every candidate for an empty divisor (for-all over nothing is vacuously
// true); this package's contract, matching the paper's algorithms, is an
// empty quotient, so that case is answered before the plan runs.
func algebraicDivide(sp division.Spec) ([]tuple.Tuple, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	divisor, err := exec.Collect(exec.NewHashDedup(sp.Divisor, nil))
	if err != nil || len(divisor) == 0 {
		return nil, err
	}
	qs, qCols := sp.QuotientSchema(), sp.QuotientCols()
	// π_q(R), deduplicated: the candidate quotient values.
	candidates, err := exec.Collect(exec.NewHashDedup(exec.NewProject(sp.Dividend, qCols), nil))
	if err != nil {
		return nil, err
	}
	// (π_q(R) × S): every pair that MUST exist for its candidate to divide.
	product := newCrossProduct(exec.NewMemScan(qs, candidates), exec.NewMemScan(sp.Divisor.Schema(), divisor))
	// π_{q,d}(R) reordered to the product's (q..., d...) layout.
	reordered := exec.NewProject(sp.Dividend, append(append([]int(nil), qCols...), sp.DivisorCols...))
	// Missing pairs, projected back to the candidates that fail for-all.
	failCols := make([]int, len(qCols))
	for i := range failCols {
		failCols[i] = i
	}
	failed := exec.NewHashDedup(exec.NewProject(newDifference(product, reordered, nil), failCols), nil)
	return exec.Collect(newDifference(exec.NewMemScan(qs, candidates), failed, nil))
}

var (
	pairSchema   = tuple.NewSchema(tuple.Int64Field("student"), tuple.Int64Field("course"))
	courseSchema = tuple.NewSchema(tuple.Int64Field("course"))
)

// pairSpec builds (student, course) ÷ (course) over in-memory tuples.
func pairSpec(dividend [][2]int64, divisor []int64) division.Spec {
	dts := make([]tuple.Tuple, len(dividend))
	for i, r := range dividend {
		dts[i] = pairSchema.MustMake(r[0], r[1])
	}
	sts := make([]tuple.Tuple, len(divisor))
	for i, v := range divisor {
		sts[i] = courseSchema.MustMake(v)
	}
	return division.Spec{
		Dividend:    exec.NewMemScan(pairSchema, dts),
		Divisor:     exec.NewMemScan(courseSchema, sts),
		DivisorCols: []int{1},
	}
}

func mustCollect(t *testing.T, op exec.Operator) []tuple.Tuple {
	t.Helper()
	ts, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestCrossProduct(t *testing.T) {
	ls := tuple.NewSchema(tuple.Int64Field("a"))
	rs := tuple.NewSchema(tuple.Int64Field("b"))
	left := exec.NewMemScan(ls, []tuple.Tuple{ls.MustMake(1), ls.MustMake(2)})
	right := exec.NewMemScan(rs, []tuple.Tuple{rs.MustMake(10), rs.MustMake(20), rs.MustMake(30)})
	cp := newCrossProduct(left, right)
	ts := mustCollect(t, cp)
	if len(ts) != 6 {
		t.Fatalf("product has %d tuples, want 6", len(ts))
	}
	s := cp.Schema()
	seen := make(map[[2]int64]bool)
	for _, tp := range ts {
		seen[[2]int64{s.Int64(tp, 0), s.Int64(tp, 1)}] = true
	}
	for _, a := range []int64{1, 2} {
		for _, b := range []int64{10, 20, 30} {
			if !seen[[2]int64{a, b}] {
				t.Errorf("missing pair (%d,%d)", a, b)
			}
		}
	}
}

func TestCrossProductEmptySides(t *testing.T) {
	s := tuple.NewSchema(tuple.Int64Field("a"))
	one := []tuple.Tuple{s.MustMake(1)}
	if got := mustCollect(t, newCrossProduct(exec.NewMemScan(s, nil), exec.NewMemScan(s, one))); len(got) != 0 {
		t.Errorf("empty left gave %d", len(got))
	}
	if got := mustCollect(t, newCrossProduct(exec.NewMemScan(s, one), exec.NewMemScan(s, nil))); len(got) != 0 {
		t.Errorf("empty right gave %d", len(got))
	}
}

func TestDifference(t *testing.T) {
	s := tuple.NewSchema(tuple.Int64Field("v"))
	mk := func(vals ...int64) []tuple.Tuple {
		out := make([]tuple.Tuple, len(vals))
		for i, v := range vals {
			out[i] = s.MustMake(v)
		}
		return out
	}
	d := newDifference(
		exec.NewMemScan(s, mk(1, 2, 2, 3, 4)), // left duplicates collapse
		exec.NewMemScan(s, mk(2, 4, 5)),
		nil)
	got := mustCollect(t, d)
	if len(got) != 2 {
		t.Fatalf("difference = %d tuples, want 2", len(got))
	}
	vals := map[int64]bool{}
	for _, tp := range got {
		vals[s.Int64(tp, 0)] = true
	}
	if !vals[1] || !vals[3] {
		t.Errorf("difference = %v", vals)
	}
}

func TestDifferenceCountsWork(t *testing.T) {
	s := tuple.NewSchema(tuple.Int64Field("v"))
	var c exec.Counters
	d := newDifference(exec.NewMemScan(s, []tuple.Tuple{s.MustMake(1)}),
		exec.NewMemScan(s, []tuple.Tuple{s.MustMake(2)}), &c)
	mustCollect(t, d)
	if c.Hash == 0 {
		t.Error("difference did not fold hash counts")
	}
}

func TestDifferenceWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a := tuple.NewSchema(tuple.Int64Field("a"))
	b := tuple.NewSchema(tuple.CharField("b", 3))
	newDifference(exec.NewMemScan(a, nil), exec.NewMemScan(b, nil), nil)
}

// checkAlgebraic compares the algebraic oracle with division.Reference.
func checkAlgebraic(dividend [][2]int64, divisor []int64) (got, ref []tuple.Tuple, ok bool, err error) {
	ref, err = division.Reference(pairSpec(dividend, divisor))
	if err != nil {
		return nil, nil, false, err
	}
	got, err = algebraicDivide(pairSpec(dividend, divisor))
	if err != nil {
		return nil, nil, false, err
	}
	return got, ref, division.EqualTupleSets(pairSchema.Project([]int{0}), got, ref), nil
}

func TestAlgebraicMatchesReference(t *testing.T) {
	got, ref, ok, err := checkAlgebraic(
		[][2]int64{{1, 101}, {2, 102}, {1, 102}, {2, 999}, {3, 101}, {3, 102}}, []int64{101, 102})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("algebraic = %d tuples, reference %d", len(got), len(ref))
	}
}

func TestAlgebraicEmptyDivisor(t *testing.T) {
	got, err := algebraicDivide(pairSpec([][2]int64{{1, 101}}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty divisor gave %d tuples (package contract: empty quotient)", len(got))
	}
}

func TestAlgebraicHandlesDuplicates(t *testing.T) {
	got, err := algebraicDivide(pairSpec([][2]int64{{1, 101}, {1, 101}, {1, 102}, {2, 101}}, []int64{101, 102, 102}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || pairSchema.Project([]int{0}).Int64(got[0], 0) != 1 {
		t.Errorf("quotient = %d tuples, want student 1 alone", len(got))
	}
}

// Property: the algebraic oracle agrees with the brute-force reference.
func TestQuickAlgebraicMatchesReference(t *testing.T) {
	f := func(raw []byte, nDivisorRaw uint8) bool {
		divisor := make([]int64, int(nDivisorRaw%5)+1)
		for i := range divisor {
			divisor[i] = int64(i)
		}
		dividend := make([][2]int64, len(raw))
		for i, b := range raw {
			dividend[i] = [2]int64{int64(b >> 4), int64(b & 0x0f)}
		}
		_, _, ok, err := checkAlgebraic(dividend, divisor)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
