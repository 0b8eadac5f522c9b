package reldiv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"

	"repro/internal/division"
	"repro/internal/netexchange"
	"repro/internal/tuple"
	"repro/server"
)

// The entry-point parity harness runs one relation pair under one Options
// through every entry point — Divide, DivideWithStats, DivideStream,
// ExplainAnalyze, the server's divide and netexchange.Divide — and checks
// each outcome against two oracles, division.Reference and the §1 algebraic
// identity (algebraic_test.go).
//
// The library entry points share one contract: a serial run under
// Options.MemoryBudget is recursive hash-division, and Workers > 1 runs
// Divide and ExplainAnalyze in parallel without reading the budget, while
// DivideWithStats and DivideStream are always serial. Entry points that run
// the same engine must agree exactly — the same quotient, or the same typed
// error — and every quotient must be the reference. The server and the
// exchange read the budget figure as a memory grant, so they must return the
// reference quotient whenever they succeed.

// parityInput is one relation pair of the harness.
type parityInput struct {
	name              string
	char              bool // CHAR keys instead of int64
	students, courses int
	full              int  // every full-th student takes every course
	dup               int  // copies of every dividend and divisor row
	dangling          bool // dividend rows whose course is not in the divisor
	emptyDividend     bool
	emptyDivisor      bool
	seed              int64
}

// relations generates the pair.
func (in parityInput) relations() (dividend, divisor *Relation) {
	rng := rand.New(rand.NewSource(in.seed))
	key := func(prefix string, v int) any {
		if in.char {
			return fmt.Sprintf("%s%d", prefix, v)
		}
		return int64(v)
	}
	if in.char {
		dividend = NewRelation("transcript", StringCol("student", 6), StringCol("course", 8))
		divisor = NewRelation("courses", StringCol("course", 8))
	} else {
		dividend = NewRelation("transcript", Int64Col("student"), Int64Col("course"))
		divisor = NewRelation("courses", Int64Col("course"))
	}
	dup := max(in.dup, 1)
	if !in.emptyDivisor {
		for c := 0; c < in.courses; c++ {
			for d := 0; d < dup; d++ {
				divisor.MustInsert(key("c", c))
			}
		}
	}
	if in.emptyDividend {
		return dividend, divisor
	}
	for s := 0; s < in.students; s++ {
		for c := 0; c < in.courses; c++ {
			if (in.full > 0 && s%in.full == 0) || rng.Intn(3) > 0 {
				for d := 0; d < dup; d++ {
					dividend.MustInsert(key("s", s), key("c", c))
				}
			}
		}
		if in.dangling && rng.Intn(2) == 0 {
			dividend.MustInsert(key("s", s), key("c", in.courses+rng.Intn(3)))
		}
	}
	rng.Shuffle(len(dividend.tuples), func(i, j int) {
		dividend.tuples[i], dividend.tuples[j] = dividend.tuples[j], dividend.tuples[i]
	})
	return dividend, divisor
}

// parityRig holds the long-lived peers of one harness run: a server behind
// an in-process listener and a 2-worker exchange cluster, both restarted
// lazily.
type parityRig struct {
	t      testing.TB
	srv    *server.Server
	client *server.Client
	tables int
	cl     *netexchange.Cluster
}

func newParityRig(t testing.TB) *parityRig {
	rig := &parityRig{t: t}
	t.Cleanup(rig.close)
	return rig
}

func (rig *parityRig) close() {
	if rig.client != nil {
		rig.client.Close()
	}
	if rig.srv != nil {
		rig.srv.Close()
	}
	if rig.cl != nil {
		rig.cl.Close()
	}
}

// serverDivide loads the pair into the server under fresh names and divides
// with the budget figure as the grant.
func (rig *parityRig) serverDivide(dividend, divisor *Relation, budget int) ([]string, error) {
	if rig.srv == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			rig.t.Fatal(err)
		}
		rig.srv = server.NewServer(server.Options{})
		go rig.srv.Serve(ln) //nolint:errcheck // ends with Close
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			rig.t.Fatal(err)
		}
		rig.client = server.NewClient(conn)
	}
	rig.tables++
	dn, sn := fmt.Sprintf("dividend%d", rig.tables), fmt.Sprintf("divisor%d", rig.tables)
	for _, rel := range []struct {
		name string
		r    *Relation
	}{{dn, dividend}, {sn, divisor}} {
		if err := rig.client.CreateTable(rel.name, rel.r.Columns()...); err != nil {
			rig.t.Fatal(err)
		}
		if rel.r.NumRows() == 0 {
			continue
		}
		rows := make([][]int64, rel.r.NumRows())
		for i := range rows {
			for _, v := range rel.r.Row(i) {
				rows[i] = append(rows[i], v.(int64))
			}
		}
		if err := rig.client.Insert(rel.name, rows); err != nil {
			rig.t.Fatal(err)
		}
	}
	resp, err := rig.client.Do(server.Request{Op: "divide", Dividend: dn, Divisor: sn, MemoryBudget: budget})
	if err != nil {
		rig.t.Fatal(err)
	}
	if err := resp.Err(); err != nil {
		return nil, err
	}
	keys := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		row := make([]any, len(r))
		for j, v := range r {
			row[j] = v
		}
		keys[i] = fmt.Sprint(row...)
	}
	return keys, nil
}

// exchangeDivide runs netexchange.Divide on the 2-worker cluster. A failed
// job leaves its links closed, so the cluster is replaced after an error.
func (rig *parityRig) exchangeDivide(dividend, divisor *Relation, o Options) ([]string, error) {
	if rig.cl == nil {
		cl, err := netexchange.StartLocalCluster(2)
		if err != nil {
			rig.t.Fatal(err)
		}
		rig.cl = cl
	}
	sp, result, err := newSpec(dividend, divisor, nil)
	if err != nil {
		rig.t.Fatal(err)
	}
	res, err := netexchange.Divide(context.Background(), sp, netexchange.Config{
		Strategy:        o.strategy(),
		BitVectorFilter: o.BitVectorFilter,
		WorkerBudget:    int64(o.MemoryBudget),
	}, rig.cl.Conns())
	if err != nil {
		rig.cl.Close()
		rig.cl = nil
		return nil, err
	}
	result.tuples = res.Quotient
	return quotientKeys(result), nil
}

// quotientKeys renders a quotient's rows as sorted strings.
func quotientKeys(rel *Relation) []string {
	keys := make([]string, rel.NumRows())
	for i := range keys {
		keys[i] = fmt.Sprint(rel.Row(i)...)
	}
	sort.Strings(keys)
	return keys
}

// errClass names the typed error a failed run returned; "" for success.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, division.ErrMemoryBudget):
		return "ErrMemoryBudget"
	case errors.Is(err, division.ErrPartitionDepth):
		return "ErrPartitionDepth"
	default:
		return "untyped: " + err.Error()
	}
}

// outcome is one entry point's result.
type outcome struct {
	entry string
	keys  []string
	err   string
}

// checkParity runs every entry point on the pair under o and reports each
// disagreement through t.
func checkParity(t testing.TB, rig *parityRig, dividend, divisor *Relation, o Options) {
	t.Helper()
	sp, _, err := newSpec(dividend, divisor, nil)
	if err != nil {
		t.Fatal(err)
	}
	refTuples, err := division.Reference(sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := quotientKeys(&Relation{schema: sp.QuotientSchema(), tuples: refTuples})
	algTuples, err := algebraicDivide(sp)
	if err != nil {
		t.Fatal(err)
	}
	if alg := quotientKeys(&Relation{schema: sp.QuotientSchema(), tuples: algTuples}); !equalKeys(alg, ref) {
		t.Fatalf("oracles disagree: reference %d rows, algebraic %d rows", len(ref), len(alg))
	}

	var serial, parallel []outcome
	record := func(entry string, rel *Relation, err error) *Relation {
		oc := outcome{entry: entry, err: errClass(err)}
		if err == nil {
			oc.keys = quotientKeys(rel)
		}
		if o.Workers > 1 && (entry == "Divide" || entry == "ExplainAnalyze") {
			parallel = append(parallel, oc)
		} else {
			serial = append(serial, oc)
		}
		return rel
	}

	q, err := Divide(dividend, divisor, nil, &o)
	record("Divide", q, err)

	q, rs, err := DivideWithStats(dividend, divisor, nil, &o)
	if record("DivideWithStats", q, err) != nil {
		if rs.QuotientRows != int64(q.NumRows()) {
			t.Errorf("%+v: RunStats.QuotientRows = %d, quotient has %d rows", o, rs.QuotientRows, q.NumRows())
		}
		if o.MemoryBudget > 0 && rs.PeakTableBytes > o.MemoryBudget {
			t.Errorf("%+v: PeakTableBytes %d exceeds the budget", o, rs.PeakTableBytes)
		}
	}

	streamed := &Relation{schema: sp.QuotientSchema()}
	err = DivideStream(streamOf(dividend), streamOf(divisor), nil, &o, func(row []any) error {
		return streamed.Insert(row...)
	})
	record("DivideStream", streamed, err)

	q, prof, err := ExplainAnalyze(dividend, divisor, nil, &o)
	if record("ExplainAnalyze", q, err) != nil && o.Workers <= 1 {
		ops := prof.Root.Children()
		if len(ops) != 1 || ops[0].Rows() != int64(q.NumRows()) {
			t.Errorf("%+v: EXPLAIN ANALYZE root operator does not count the %d quotient rows", o, q.NumRows())
		} else if rs.QuotientRows != ops[0].Rows() {
			t.Errorf("%+v: RunStats.QuotientRows %d, EXPLAIN ANALYZE root rows %d", o, rs.QuotientRows, ops[0].Rows())
		}
	}

	for _, group := range [][]outcome{serial, parallel} {
		for _, oc := range group {
			if oc.err != group[0].err || (oc.err == "" && !equalKeys(oc.keys, group[0].keys)) {
				t.Errorf("%+v: %s (%d rows, err %q) disagrees with %s (%d rows, err %q)",
					o, oc.entry, len(oc.keys), oc.err, group[0].entry, len(group[0].keys), group[0].err)
			}
			if strings.HasPrefix(oc.err, "untyped") || (o.MemoryBudget == 0 && oc.err != "") {
				t.Errorf("%+v: %s failed: %s", o, oc.entry, oc.err)
			}
			if oc.err == "" && !equalKeys(oc.keys, ref) {
				t.Errorf("%+v: %s returned %d rows, reference %d", o, oc.entry, len(oc.keys), len(ref))
			}
		}
	}

	// The grant readers: a success must be the reference quotient.
	if dividend.schema.Field(0).Kind == tuple.KindInt64 {
		keys, err := rig.serverDivide(dividend, divisor, o.MemoryBudget)
		if err == nil && !equalKeys(keys, ref) {
			t.Errorf("%+v: server returned %d rows, reference %d", o, len(keys), len(ref))
		}
	}
	keys, err := rig.exchangeDivide(dividend, divisor, o)
	if err == nil && !equalKeys(keys, ref) {
		t.Errorf("%+v: netexchange returned %d rows, reference %d", o, len(keys), len(ref))
	}
}

// streamOf replays a relation as a StreamInput.
func streamOf(r *Relation) StreamInput {
	cols := make([]Column, r.schema.NumFields())
	for i := range cols {
		f := r.schema.Field(i)
		cols[i] = Column{Name: f.Name, kind: f.Kind, width: f.Width}
	}
	return StreamInput{Columns: cols, Open: func() (RowReader, error) { return SliceReader(r.Rows()), nil }}
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tableBytes measures the hash tables of an unbudgeted hash-division run:
// the figure the harness's budget percentages are taken of.
func tableBytes(t testing.TB, dividend, divisor *Relation) int {
	t.Helper()
	_, rs, err := DivideWithStats(dividend, divisor, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs.PeakTableBytes
}

var parityAlgorithms = []Algorithm{
	Auto, Naive, SortAggregation, SortAggregationJoin, HashAggregation, HashAggregationJoin, HashDivision,
}

// TestEntryPointParity runs every input at every budget level with both
// worker counts and both strategies; the algorithm and the EarlyEmit and
// BitVectorFilter flags rotate through those runs, so each value of each
// option meets every input.
func TestEntryPointParity(t *testing.T) {
	inputs := []parityInput{
		{name: "int64", students: 60, courses: 6, full: 3, seed: 1},
		{name: "int64-dup-dangling", students: 80, courses: 5, full: 4, dup: 2, dangling: true, seed: 2},
		{name: "char", char: true, students: 50, courses: 4, full: 3, seed: 3},
		{name: "char-dup-dangling", char: true, students: 40, courses: 7, full: 5, dup: 3, dangling: true, seed: 4},
		{name: "empty-divisor", students: 20, courses: 4, emptyDivisor: true, seed: 5},
		{name: "empty-dividend", students: 20, courses: 4, emptyDividend: true, seed: 6},
		{name: "wide-divisor", students: 12, courses: 120, full: 2, dangling: true, seed: 7},
	}
	rig := newParityRig(t)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			rig.t = t
			dividend, divisor := in.relations()
			table := tableBytes(t, dividend, divisor)
			run := 0
			for _, pct := range []int{0, 100, 25, 5, 1} {
				for _, workers := range []int{0, 2} {
					for _, divisorPartitioned := range []bool{false, true} {
						algs := parityAlgorithms
						if in.dangling {
							algs = algs[:0:0]
							for _, a := range parityAlgorithms {
								if ia, err := a.internal(); err != nil || !ia.AssumesMatchingDividend() {
									algs = append(algs, a)
								}
							}
						}
						o := Options{
							Algorithm:          algs[run%len(algs)],
							MemoryBudget:       max(table*pct/100, min(pct, 1)),
							Workers:            workers,
							DivisorPartitioned: divisorPartitioned,
							EarlyEmit:          run%2 == 0,
							BitVectorFilter:    run%3 != 0,
						}
						run++
						checkParity(t, rig, dividend, divisor, o)
					}
				}
			}
		})
	}
}

// FuzzEntryPointParity draws the input and the options from the fuzzer:
// students × courses with every full-th student complete, shape bits for
// CHAR keys, duplicates, dangling rows and empty sides, option bits for the
// flags, and an absolute budget in bytes (0 = none). The seeds include the
// 3000 × 8 all-complete case at 64 KB, 8 KB and 2 KB.
func FuzzEntryPointParity(f *testing.F) {
	f.Add(uint16(3000), uint8(8), uint8(1), uint8(0), uint8(0), uint32(64<<10), int64(1))
	f.Add(uint16(3000), uint8(8), uint8(1), uint8(0), uint8(0), uint32(8<<10), int64(1))
	f.Add(uint16(3000), uint8(8), uint8(1), uint8(0), uint8(0), uint32(2<<10), int64(1))
	f.Add(uint16(50), uint8(6), uint8(3), uint8(0x0e), uint8(0x3f), uint32(900), int64(2))
	f.Add(uint16(30), uint8(3), uint8(2), uint8(0x11), uint8(0x15), uint32(0), int64(3))
	rig := newParityRig(f)
	f.Fuzz(func(t *testing.T, students uint16, courses, full, shape, opts uint8, budget uint32, seed int64) {
		rig.t = t
		in := parityInput{
			students:      int(students % 3001),
			courses:       int(courses%64) + 1,
			full:          int(full),
			char:          shape&1 != 0,
			dup:           int(shape>>1&3) + 1,
			dangling:      shape&8 != 0,
			emptyDividend: shape&16 != 0,
			emptyDivisor:  shape&32 != 0,
			seed:          seed,
		}
		dividend, divisor := in.relations()
		alg := parityAlgorithms[int(opts&7)%len(parityAlgorithms)]
		if ia, err := alg.internal(); err == nil && ia.AssumesMatchingDividend() && in.dangling {
			alg = HashDivision // outside its documented precondition
		}
		checkParity(t, rig, dividend, divisor, Options{
			Algorithm:          alg,
			MemoryBudget:       int(budget % (1 << 24)),
			Workers:            int(opts>>3&1) * 2,
			DivisorPartitioned: opts&16 != 0,
			EarlyEmit:          opts&32 != 0,
			BitVectorFilter:    opts&64 != 0,
		})
	})
}

// TestBudgetedEntryPointsDivide3000x8: 3000 complete candidates over an
// 8-value divisor divide exactly on every library entry point at budgets
// far below the 3000-candidate quotient table.
func TestBudgetedEntryPointsDivide3000x8(t *testing.T) {
	dividend, divisor := parityInput{students: 3000, courses: 8, full: 1, seed: 1}.relations()
	for _, budget := range []int{64 << 10, 8 << 10, 2 << 10} {
		o := &Options{MemoryBudget: budget}
		rows := map[string]int{}
		if q, err := Divide(dividend, divisor, nil, o); err == nil {
			rows["Divide"] = q.NumRows()
		}
		if q, _, err := DivideWithStats(dividend, divisor, nil, o); err == nil {
			rows["DivideWithStats"] = q.NumRows()
		}
		if q, _, err := ExplainAnalyze(dividend, divisor, nil, o); err == nil {
			rows["ExplainAnalyze"] = q.NumRows()
		}
		n := 0
		if err := DivideStream(streamOf(dividend), streamOf(divisor), nil, o, func([]any) error {
			n++
			return nil
		}); err == nil {
			rows["DivideStream"] = n
		}
		for _, entry := range []string{"Divide", "DivideWithStats", "ExplainAnalyze", "DivideStream"} {
			if rows[entry] != 3000 {
				t.Errorf("budget %d: %s returned %d rows, want 3000", budget, entry, rows[entry])
			}
		}
	}
}
