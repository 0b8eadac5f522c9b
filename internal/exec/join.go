package exec

import (
	"io"

	"repro/internal/hashtab"
	"repro/internal/tuple"
)

// MergeJoin joins two inputs sorted on their join keys. In Semi mode it
// emits each outer (left) tuple at most once when a matching inner (right)
// tuple exists, as the paper's semi-join implementation does ("for semi-joins
// in which the outer relation produces the result, no linked lists are
// used"). In inner mode it emits the concatenation of matching pairs,
// buffering the current inner key group in memory (the paper's "linked list
// of tuples pinned in the buffer pool").
type MergeJoin struct {
	left, right         Operator
	leftKeys, rightKeys []int
	semi                bool
	counters            *Counters
	schema              *tuple.Schema

	opened    bool
	leftCur   tuple.Tuple
	rightCur  tuple.Tuple
	leftEOF   bool
	rightEOF  bool
	group     []tuple.Tuple // buffered right group (inner mode)
	groupIdx  int
	groupLeft tuple.Tuple // left tuple currently paired with the group

	// leftCur is a copy in one of two alternating buffers, so the previous
	// left tuple (a semi-join result or groupLeft) survives the advance.
	leftBuf  [2]tuple.Tuple
	leftFlip int
}

// NewMergeJoin builds an inner merge join of left and right on the given key
// columns; both inputs must arrive sorted on those keys.
func NewMergeJoin(left, right Operator, leftKeys, rightKeys []int, counters *Counters) *MergeJoin {
	return &MergeJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		counters: counters,
		schema:   left.Schema().Concat(right.Schema()),
	}
}

// NewMergeSemiJoin builds a semi join: left tuples with at least one match
// in right, each emitted once. Left must not contain duplicates on the keys
// if exact multiset semantics matter to the caller.
func NewMergeSemiJoin(left, right Operator, leftKeys, rightKeys []int, counters *Counters) *MergeJoin {
	return &MergeJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		semi:     true,
		counters: counters,
		schema:   left.Schema(),
	}
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *tuple.Schema { return j.schema }

// Open implements Operator.
func (j *MergeJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.right.Open(); err != nil {
		j.left.Close()
		return err
	}
	j.opened = true
	j.leftEOF, j.rightEOF = false, false
	j.leftCur, j.rightCur = nil, nil
	j.group, j.groupIdx, j.groupLeft = nil, 0, nil
	return nil
}

func (j *MergeJoin) advanceLeft() error {
	t, err := j.left.Next()
	if err == io.EOF {
		j.leftEOF = true
		j.leftCur = nil
		return nil
	}
	if err != nil {
		return err
	}
	j.leftFlip ^= 1
	j.leftBuf[j.leftFlip] = append(j.leftBuf[j.leftFlip][:0], t...)
	j.leftCur = j.leftBuf[j.leftFlip]
	return nil
}

func (j *MergeJoin) advanceRight() error {
	t, err := j.right.Next()
	if err == io.EOF {
		j.rightEOF = true
		j.rightCur = nil
		return nil
	}
	if err != nil {
		return err
	}
	j.rightCur = t.Clone()
	return nil
}

func (j *MergeJoin) compareKeys() int {
	if j.counters != nil {
		j.counters.Comp++
	}
	return tuple.CompareCross(j.left.Schema(), j.leftCur, j.leftKeys,
		j.right.Schema(), j.rightCur, j.rightKeys)
}

// Next implements Operator.
func (j *MergeJoin) Next() (tuple.Tuple, error) {
	if !j.opened {
		return nil, errNotOpen("MergeJoin")
	}
	// Emit any remaining pairs of the buffered group (inner mode).
	if t, err, done := j.emitFromGroup(); !done {
		return t, err
	}

	if j.leftCur == nil && !j.leftEOF {
		if err := j.advanceLeft(); err != nil {
			return nil, err
		}
	}
	if j.rightCur == nil && !j.rightEOF {
		if err := j.advanceRight(); err != nil {
			return nil, err
		}
	}

	for {
		if j.leftEOF || j.rightEOF {
			return nil, io.EOF
		}
		switch j.compareKeys() {
		case -1:
			if err := j.advanceLeft(); err != nil {
				return nil, err
			}
		case 1:
			if err := j.advanceRight(); err != nil {
				return nil, err
			}
		default:
			if j.semi {
				out := j.leftCur
				j.leftCur = nil
				if err := j.advanceLeft(); err != nil {
					return nil, err
				}
				return out, nil
			}
			// Inner: buffer the right group for this key.
			if err := j.bufferRightGroup(); err != nil {
				return nil, err
			}
			j.groupLeft = j.leftCur
			j.groupIdx = 0
			if err := j.advanceLeft(); err != nil {
				return nil, err
			}
			if t, err, done := j.emitFromGroup(); !done {
				return t, err
			}
		}
	}
}

// bufferRightGroup collects every right tuple whose key equals rightCur's.
func (j *MergeJoin) bufferRightGroup() error {
	rs := j.right.Schema()
	j.group = j.group[:0]
	key := j.rightCur
	j.group = append(j.group, key)
	for {
		if err := j.advanceRight(); err != nil {
			return err
		}
		if j.rightEOF {
			return nil
		}
		if j.counters != nil {
			j.counters.Comp++
		}
		if rs.Compare(key, j.rightCur, j.rightKeys) != 0 {
			return nil
		}
		j.group = append(j.group, j.rightCur)
	}
}

// emitFromGroup produces the next (groupLeft × group) pair. When the group
// left tuple is exhausted it checks whether the next left tuple still matches
// the group's key and continues with it. done=true means nothing to emit.
func (j *MergeJoin) emitFromGroup() (tuple.Tuple, error, bool) {
	if j.semi || len(j.group) == 0 || j.groupLeft == nil {
		return nil, nil, true
	}
	for {
		if j.groupIdx < len(j.group) {
			out := tuple.ConcatTuples(j.groupLeft, j.group[j.groupIdx])
			j.groupIdx++
			return out, nil, false
		}
		// Does the next left tuple share the group key?
		if j.leftEOF {
			j.group, j.groupLeft = nil, nil
			return nil, nil, true
		}
		if j.counters != nil {
			j.counters.Comp++
		}
		if tuple.CompareCross(j.left.Schema(), j.leftCur, j.leftKeys,
			j.right.Schema(), j.group[0], j.rightKeys) != 0 {
			j.group, j.groupLeft = nil, nil
			return nil, nil, true
		}
		j.groupLeft = j.leftCur
		j.groupIdx = 0
		if err := j.advanceLeft(); err != nil {
			return nil, err, false
		}
	}
}

// Close implements Operator.
func (j *MergeJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// HashSemiJoin emits each probe-side tuple that has a match in the build
// side. The build side is consumed into a bucket-chained hash table at Open —
// the structure of the paper's hash semi-join that precedes hash aggregation
// in the second example query.
type HashSemiJoin struct {
	probe     Operator
	build     Operator
	probeKeys []int
	buildKeys []int
	counters  *Counters
	table     *hashtab.Table
	opened    bool
}

// NewHashSemiJoin builds the semi join; build is hashed on buildKeys, probe
// tuples match via probeKeys.
func NewHashSemiJoin(probe, build Operator, probeKeys, buildKeys []int, counters *Counters) *HashSemiJoin {
	return &HashSemiJoin{
		probe: probe, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys,
		counters: counters,
	}
}

// Schema implements Operator.
func (j *HashSemiJoin) Schema() *tuple.Schema { return j.probe.Schema() }

// Open implements Operator: it drains the build side into the hash table.
func (j *HashSemiJoin) Open() error {
	keySchema := j.build.Schema().Project(j.buildKeys)
	j.table = hashtab.NewForExpected(keySchema, 64, 2)
	if err := j.build.Open(); err != nil {
		return err
	}
	bs := j.build.Schema()
	for {
		t, err := j.build.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			j.build.Close()
			return err
		}
		// GetOrInsert eliminates build-side duplicates on the fly.
		j.table.GetOrInsertProjected(t, bs, j.buildKeys)
	}
	if err := j.build.Close(); err != nil {
		return err
	}
	j.opened = true
	return j.probe.Open()
}

// Next implements Operator.
func (j *HashSemiJoin) Next() (tuple.Tuple, error) {
	if !j.opened {
		return nil, errNotOpen("HashSemiJoin")
	}
	ps := j.probe.Schema()
	for {
		t, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if j.table.LookupProjected(t, ps, j.probeKeys) >= 0 {
			return t, nil
		}
	}
}

// Close implements Operator.
func (j *HashSemiJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.fold()
	j.table = nil
	return j.probe.Close()
}

func (j *HashSemiJoin) fold() {
	if j.counters != nil && j.table != nil {
		st := j.table.Stats()
		j.counters.Hash += st.Hashes
		j.counters.Comp += st.Comparisons
	}
}

// HashJoin is an inner hash join: the build side is loaded into buckets at
// Open, probe tuples stream and emit concatenated pairs for every match.
type HashJoin struct {
	probe     Operator
	build     Operator
	probeKeys []int
	buildKeys []int
	counters  *Counters
	schema    *tuple.Schema

	buckets map[uint64][]tuple.Tuple
	matches []tuple.Tuple
	matchIx int
	current tuple.Tuple
	opened  bool
}

// NewHashJoin builds an inner hash join; output is probe ++ build columns.
func NewHashJoin(probe, build Operator, probeKeys, buildKeys []int, counters *Counters) *HashJoin {
	return &HashJoin{
		probe: probe, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys,
		counters: counters,
		schema:   probe.Schema().Concat(build.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *tuple.Schema { return j.schema }

// Open implements Operator.
func (j *HashJoin) Open() error {
	j.buckets = make(map[uint64][]tuple.Tuple)
	if err := j.build.Open(); err != nil {
		return err
	}
	bs := j.build.Schema()
	for {
		t, err := j.build.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			j.build.Close()
			return err
		}
		if j.counters != nil {
			j.counters.Hash++
		}
		h := bs.Hash(t, j.buildKeys)
		j.buckets[h] = append(j.buckets[h], t.Clone())
	}
	if err := j.build.Close(); err != nil {
		return err
	}
	j.opened = true
	return j.probe.Open()
}

// Next implements Operator.
func (j *HashJoin) Next() (tuple.Tuple, error) {
	if !j.opened {
		return nil, errNotOpen("HashJoin")
	}
	ps, bs := j.probe.Schema(), j.build.Schema()
	for {
		if j.matchIx < len(j.matches) {
			out := tuple.ConcatTuples(j.current, j.matches[j.matchIx])
			j.matchIx++
			return out, nil
		}
		t, err := j.probe.Next()
		if err != nil {
			return nil, err
		}
		if j.counters != nil {
			j.counters.Hash++
		}
		h := ps.Hash(t, j.probeKeys)
		candidates := j.buckets[h]
		j.matches = j.matches[:0]
		for _, b := range candidates {
			if j.counters != nil {
				j.counters.Comp++
			}
			if tuple.CompareCross(ps, t, j.probeKeys, bs, b, j.buildKeys) == 0 {
				j.matches = append(j.matches, b)
			}
		}
		if len(j.matches) > 0 {
			j.current = t.Clone()
			j.matchIx = 0
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	j.buckets = nil
	j.matches = nil
	return j.probe.Close()
}
