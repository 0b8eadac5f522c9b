package exec

import (
	"fmt"
	"io"
	"math"

	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// AggFunc enumerates the aggregate functions of the general grouped
// aggregation operators. The paper's division-by-aggregation needs only
// COUNT, but its footnote 1 points at the general case ("sum of salaries by
// department is different than sum of distinct salaries by department"), so
// the engine provides the usual set over int64 columns.
type AggFunc int

const (
	// AggCount counts tuples per group.
	AggCount AggFunc = iota
	// AggSum sums an int64 column per group.
	AggSum
	// AggMin keeps the minimum of an int64 column per group.
	AggMin
	// AggMax keeps the maximum of an int64 column per group.
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggSpec is one aggregate to compute: a function over a column (the column
// is ignored for AggCount).
type AggSpec struct {
	Func AggFunc
	Col  int
}

// aggState initializes and folds one aggregate value.
func (a AggSpec) init(s *tuple.Schema, t tuple.Tuple) int64 {
	switch a.Func {
	case AggCount:
		return 1
	default:
		return s.Int64(t, a.Col)
	}
}

func (a AggSpec) fold(acc int64, s *tuple.Schema, t tuple.Tuple) int64 {
	switch a.Func {
	case AggCount:
		return acc + 1
	case AggSum:
		return acc + s.Int64(t, a.Col)
	case AggMin:
		if v := s.Int64(t, a.Col); v < acc {
			return v
		}
		return acc
	case AggMax:
		if v := s.Int64(t, a.Col); v > acc {
			return v
		}
		return acc
	default:
		return acc
	}
}

// GroupAggSchema is the output layout of a grouped aggregation: the group
// columns followed by one int64 per aggregate, named "<func>_<col>" (or
// "count").
func GroupAggSchema(input *tuple.Schema, groupCols []int, aggs []AggSpec) *tuple.Schema {
	fields := make([]tuple.Field, 0, len(aggs))
	for _, a := range aggs {
		name := "count"
		if a.Func != AggCount {
			name = fmt.Sprintf("%s_%s", a.Func, input.Field(a.Col).Name)
		}
		fields = append(fields, tuple.Int64Field(name))
	}
	return input.Project(groupCols).Concat(tuple.NewSchema(fields...))
}

// validateAggs panics on out-of-range aggregate columns — specs are program
// constants.
func validateAggs(input *tuple.Schema, aggs []AggSpec) {
	if len(aggs) == 0 {
		panic("exec: aggregation needs at least one AggSpec")
	}
	for _, a := range aggs {
		if a.Func != AggCount && (a.Col < 0 || a.Col >= input.NumFields()) {
			panic(fmt.Sprintf("exec: aggregate column %d out of range", a.Col))
		}
		if a.Func != AggCount && input.Field(a.Col).Kind != tuple.KindInt64 {
			panic(fmt.Sprintf("exec: aggregate column %d is not int64", a.Col))
		}
	}
}

// HashAggregate is the general hash-based grouped aggregation (§2.2.2
// generalized beyond count): one output tuple per group, held in a
// main-memory hash table keyed on the group columns.
type HashAggregate struct {
	input     Operator
	groupCols []int
	aggs      []AggSpec
	counters  *Counters
	schema    *tuple.Schema

	table  *hashtab.Table
	accs   [][]int64 // per element number
	elems  []int     // element numbers in bucket order
	pos    int
	out    tuple.Tuple
	opened bool
}

// NewHashAggregate groups input by groupCols and computes aggs per group.
func NewHashAggregate(input Operator, groupCols []int, aggs []AggSpec, counters *Counters) *HashAggregate {
	validateAggs(input.Schema(), aggs)
	return &HashAggregate{
		input:     input,
		groupCols: append([]int(nil), groupCols...),
		aggs:      append([]AggSpec(nil), aggs...),
		counters:  counters,
		schema:    GroupAggSchema(input.Schema(), groupCols, aggs),
	}
}

// Schema implements Operator.
func (g *HashAggregate) Schema() *tuple.Schema { return g.schema }

// Open implements Operator: aggregates the whole input.
func (g *HashAggregate) Open() error {
	is := g.input.Schema()
	g.table = hashtab.NewForExpected(is.Project(g.groupCols), 256, 2)
	g.accs = g.accs[:0]
	if err := g.input.Open(); err != nil {
		return err
	}
	for {
		t, err := g.input.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			g.input.Close()
			return err
		}
		e, created := g.table.GetOrInsertProjected(t, is, g.groupCols)
		if created {
			acc := make([]int64, len(g.aggs))
			for i, a := range g.aggs {
				acc[i] = a.init(is, t)
			}
			g.accs = append(g.accs, acc) // element numbers are dense: e == len(g.accs)
		} else {
			acc := g.accs[e]
			for i, a := range g.aggs {
				acc[i] = a.fold(acc[i], is, t)
			}
		}
	}
	if err := g.input.Close(); err != nil {
		return err
	}
	g.elems = g.elems[:0]
	g.table.Iterate(func(e int) error {
		g.elems = append(g.elems, e)
		return nil
	})
	if g.counters != nil {
		st := g.table.Stats()
		g.counters.Hash += st.Hashes
		g.counters.Comp += st.Comparisons
	}
	g.pos = 0
	g.out = g.schema.New()
	g.opened = true
	return nil
}

// Next implements Operator.
func (g *HashAggregate) Next() (tuple.Tuple, error) {
	if !g.opened {
		return nil, errNotOpen("HashAggregate")
	}
	if g.pos >= len(g.elems) {
		return nil, io.EOF
	}
	e := g.elems[g.pos]
	g.pos++
	copy(g.out, g.table.Key(e))
	nGroup := len(g.groupCols)
	for i, v := range g.accs[e] {
		g.schema.SetInt64(g.out, nGroup+i, v)
	}
	return g.out, nil
}

// Close implements Operator.
func (g *HashAggregate) Close() error {
	g.opened = false
	g.table, g.accs, g.elems = nil, nil, nil
	return nil
}

// SortedAggregate is the general sort-based grouped aggregation: the input
// must arrive sorted on the group columns; one pass emits a tuple per group.
type SortedAggregate struct {
	input     Operator
	groupCols []int
	aggs      []AggSpec
	counters  *Counters
	schema    *tuple.Schema

	pending tuple.Tuple
	acc     []int64
	done    bool
	out     tuple.Tuple
	opened  bool
}

// NewSortedAggregate groups a sorted input.
func NewSortedAggregate(input Operator, groupCols []int, aggs []AggSpec, counters *Counters) *SortedAggregate {
	validateAggs(input.Schema(), aggs)
	return &SortedAggregate{
		input:     input,
		groupCols: append([]int(nil), groupCols...),
		aggs:      append([]AggSpec(nil), aggs...),
		counters:  counters,
		schema:    GroupAggSchema(input.Schema(), groupCols, aggs),
	}
}

// Schema implements Operator.
func (g *SortedAggregate) Schema() *tuple.Schema { return g.schema }

// Open implements Operator.
func (g *SortedAggregate) Open() error {
	g.pending = nil
	g.done = false
	g.out = g.schema.New()
	g.opened = true
	return g.input.Open()
}

func (g *SortedAggregate) emit() tuple.Tuple {
	is := g.input.Schema()
	is.ProjectInto(g.out, g.pending, g.groupCols)
	nGroup := len(g.groupCols)
	for i, v := range g.acc {
		g.schema.SetInt64(g.out, nGroup+i, v)
	}
	return g.out
}

// Next implements Operator.
func (g *SortedAggregate) Next() (tuple.Tuple, error) {
	if !g.opened {
		return nil, errNotOpen("SortedAggregate")
	}
	if g.done {
		return nil, io.EOF
	}
	is := g.input.Schema()
	for {
		t, err := g.input.Next()
		if err == io.EOF {
			g.done = true
			if g.pending != nil {
				return g.emit(), nil
			}
			return nil, io.EOF
		}
		if err != nil {
			return nil, err
		}
		if g.pending == nil {
			g.pending = t.Clone()
			g.acc = make([]int64, len(g.aggs))
			for i, a := range g.aggs {
				g.acc[i] = a.init(is, t)
			}
			continue
		}
		if g.counters != nil {
			g.counters.Comp++
		}
		if is.Compare(g.pending, t, g.groupCols) == 0 {
			for i, a := range g.aggs {
				g.acc[i] = a.fold(g.acc[i], is, t)
			}
			continue
		}
		out := g.emit()
		g.pending = t.Clone()
		g.acc = make([]int64, len(g.aggs))
		for i, a := range g.aggs {
			g.acc[i] = a.init(is, t)
		}
		return out, nil
	}
}

// Close implements Operator.
func (g *SortedAggregate) Close() error {
	g.opened = false
	g.pending = nil
	return g.input.Close()
}

// MinInt64 and MaxInt64 are the identity elements callers may need when
// post-processing empty groups.
const (
	MinInt64 = math.MinInt64
	MaxInt64 = math.MaxInt64
)
