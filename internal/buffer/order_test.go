package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/disk"
)

// logDev records every device transfer, in order, into a log shared by all
// devices of one run.
type logDev struct {
	*disk.Device
	log *[]string
}

func (d logDev) Read(p disk.PageID, buf []byte) error {
	*d.log = append(*d.log, fmt.Sprintf("read %s/%d", d.Name(), p))
	return d.Device.Read(p, buf)
}

func (d logDev) Write(p disk.PageID, buf []byte) error {
	*d.log = append(*d.log, fmt.Sprintf("write %s/%d", d.Name(), p))
	return d.Device.Write(p, buf)
}

type traceOpKind int

const (
	opFix traceOpKind = iota
	opUnfixKeep
	opUnfixFree
	opNewPage
	opFixVirtual
	opMarkDirty
	opDropClean
)

// traceOp is one step of a single-threaded pool trace. Operand fields are
// interpreted against the run's state (held handles), which evolves
// identically in every pool the trace replays on.
type traceOp struct {
	kind traceOpKind
	big  bool // 8 KB device / virtual frame instead of 1 KB
	page int
	pick int // index into the held handles, mod their count
}

const (
	traceSmallPages = 48 // 1 KB pages
	traceBigPages   = 10 // 8 KB pages
	traceMaxHeld    = 3  // at most 24 KB fixed, well below the pool
	tracePoolBytes  = 40 << 10
)

func randomTrace(seed int64, n int) []traceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]traceOp, n)
	for i := range ops {
		op := traceOp{big: rng.Intn(4) == 0, pick: rng.Intn(1 << 20)}
		switch r := rng.Intn(100); {
		case r < 40:
			op.kind = opFix
		case r < 58:
			op.kind = opUnfixKeep
		case r < 70:
			op.kind = opUnfixFree
		case r < 78:
			op.kind = opNewPage
		case r < 85:
			op.kind = opFixVirtual
		case r < 98:
			op.kind = opMarkDirty
		default:
			op.kind = opDropClean
		}
		if op.big {
			op.page = rng.Intn(traceBigPages)
		} else {
			op.page = rng.Intn(traceSmallPages)
		}
		ops[i] = op
	}
	return ops
}

// traceRun is everything observable about one replay.
type traceRun struct {
	events   []string // transfers and evictions, interleaved in issue order
	evicted  []string // evicted frame keys in eviction order
	pool     Stats
	devStats [2]disk.Stats
}

func keyName(k frameKey) string {
	if k.dev == nil {
		return fmt.Sprintf("virtual/%d", k.page)
	}
	return fmt.Sprintf("%s/%d", k.dev.Name(), k.page)
}

func (p *Pool) residentKeys() map[string]bool {
	out := map[string]bool{}
	for _, s := range p.shards {
		s.mu.Lock()
		for k := range s.frames {
			out[keyName(k)] = true
		}
		s.mu.Unlock()
	}
	return out
}

// replayTrace runs ops on a fresh pool with the given shape. Evicted keys
// are recovered from the eviction hook, which fires once per eviction
// (outside shard locks) in the single-threaded replay: the one key that
// left the resident set since the previous observation.
func replayTrace(t *testing.T, ops []traceOp, policy Policy, shards int) traceRun {
	t.Helper()
	var run traceRun
	small := logDev{disk.NewDevice("small", 1<<10), &run.events}
	big := logDev{disk.NewDevice("big", 8<<10), &run.events}
	small.AllocExtent(traceSmallPages)
	big.AllocExtent(traceBigPages)
	p := NewWithShards(tracePoolBytes, policy, shards)
	prev := p.residentKeys()
	var hookErr error
	p.SetHooks(Hooks{ShardEviction: func(int) {
		now := p.residentKeys()
		var gone []string
		for k := range prev {
			if !now[k] {
				gone = append(gone, k)
			}
		}
		if len(gone) != 1 && hookErr == nil {
			hookErr = fmt.Errorf("eviction hook saw %d keys leave: %v", len(gone), gone)
		}
		for _, k := range gone {
			run.evicted = append(run.evicted, k)
			run.events = append(run.events, "evict "+k)
		}
		prev = now
	}})

	var held []*Handle
	take := func(pick int) *Handle {
		i := pick % len(held)
		h := held[i]
		held = append(held[:i], held[i+1:]...)
		return h
	}
	for i, op := range ops {
		dev := small
		size := 1 << 10
		if op.big {
			dev, size = big, 8<<10
		}
		var err error
		switch op.kind {
		case opFix, opNewPage, opFixVirtual:
			if len(held) == traceMaxHeld {
				err = take(op.pick).Unfix(true)
				break
			}
			var h *Handle
			switch op.kind {
			case opFix:
				h, err = p.Fix(dev, disk.PageID(op.page))
			case opNewPage:
				_, h, err = p.NewPage(dev)
			default:
				h, err = p.FixVirtual(size)
			}
			if err == nil {
				held = append(held, h)
			}
		case opUnfixKeep, opUnfixFree:
			if len(held) > 0 {
				err = take(op.pick).Unfix(op.kind == opUnfixKeep)
			}
		case opMarkDirty:
			if len(held) > 0 {
				held[op.pick%len(held)].MarkDirty()
			}
		case opDropClean:
			err = p.DropClean()
		}
		if err != nil {
			t.Fatalf("%d shards: op %d (%+v): %v", shards, i, op, err)
		}
		prev = p.residentKeys()
	}
	for _, h := range held {
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.DropClean(); err != nil {
		t.Fatal(err)
	}
	if hookErr != nil {
		t.Fatalf("%d shards: %v", shards, hookErr)
	}
	run.pool = p.Stats()
	run.devStats = [2]disk.Stats{small.Stats(), big.Stats()}
	return run
}

// TestShardedPoolMatchesOneShard: the global tick order makes a sharded
// pool replace pages exactly like a one-shard pool when driven from one
// goroutine — same evicted keys in the same order, same device transfers in
// the same order (so the same write-backs and seeks), same statistics —
// under both policies, over random traces of every pool operation on mixed
// 1 KB and 8 KB frames.
func TestShardedPoolMatchesOneShard(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		t.Run(policy.String(), func(t *testing.T) {
			var evictions, writeBacks int
			for seed := int64(1); seed <= 24; seed++ {
				ops := randomTrace(seed, 600)
				want := replayTrace(t, ops, policy, 1)
				evictions += want.pool.Evictions
				writeBacks += want.pool.WriteBacks
				for _, shards := range []int{2, 4, 8} {
					got := replayTrace(t, ops, policy, shards)
					if !reflect.DeepEqual(got.evicted, want.evicted) {
						t.Fatalf("seed %d, %d shards: evicted keys differ from one shard at %s",
							seed, shards, firstDiff(got.evicted, want.evicted))
					}
					if !reflect.DeepEqual(got.events, want.events) {
						t.Fatalf("seed %d, %d shards: device transfers differ from one shard at %s",
							seed, shards, firstDiff(got.events, want.events))
					}
					if got.devStats != want.devStats {
						t.Fatalf("seed %d, %d shards: device stats %+v, one shard %+v",
							seed, shards, got.devStats, want.devStats)
					}
					if got.pool != want.pool {
						t.Fatalf("seed %d, %d shards: pool stats %+v, one shard %+v",
							seed, shards, got.pool, want.pool)
					}
				}
			}
			// The traces must actually exercise replacement and write-back.
			if evictions < 1000 || writeBacks < 100 {
				t.Fatalf("traces too gentle: %d evictions, %d write-backs", evictions, writeBacks)
			}
		})
	}
}

func firstDiff(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("#%d: %q, one shard %q", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("length %d, one shard %d", len(got), len(want))
}

// TestGlobalOrderStress races fixes, unfixes, new pages, virtual frames,
// dirtying and DropClean on an 8-shard pool of mixed 1 KB and 8 KB frames;
// run with -race. Each goroutine holds at most two frames, so fixed frames
// can cover at most 128 KB of the 192 KB pool: whenever the pool is full an
// unfixed frame exists, and ErrNoMemory is always a failure.
func TestGlobalOrderStress(t *testing.T) {
	for _, policy := range []Policy{LRU, Clock} {
		t.Run(policy.String(), func(t *testing.T) {
			small := newDev(1<<10, 256)
			big := newDev(8<<10, 32)
			p := NewWithShards(192<<10, policy, 8)
			const goroutines = 8
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					var held []*Handle
					for i := 0; i < 1000; i++ {
						var h *Handle
						var err error
						switch r := rng.Intn(10); {
						case r < 5:
							h, err = p.Fix(small, disk.PageID(rng.Intn(256)))
						case r < 7:
							h, err = p.Fix(big, disk.PageID(rng.Intn(32)))
						case r < 8:
							_, h, err = p.NewPage(small)
						case r < 9:
							h, err = p.FixVirtual(1 << (10 + 3*rng.Intn(2)))
						default:
							if rng.Intn(8) == 0 {
								err = p.DropClean()
							}
							st := p.Stats()
							if st.Hits+st.Misses != st.Fixes {
								t.Errorf("hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
								return
							}
						}
						if err != nil {
							t.Errorf("goroutine %d op %d: %v (ErrNoMemory: %v)", g, i, err, errors.Is(err, ErrNoMemory))
							return
						}
						if h != nil {
							if rng.Intn(3) == 0 {
								h.MarkDirty()
							}
							held = append(held, h)
						}
						if len(held) == 2 || (len(held) > 0 && rng.Intn(2) == 0) {
							if err := held[0].Unfix(rng.Intn(2) == 0); err != nil {
								t.Errorf("unfix: %v", err)
								return
							}
							held = held[1:]
						}
					}
					for _, h := range held {
						if err := h.Unfix(true); err != nil {
							t.Errorf("unfix: %v", err)
						}
					}
				}(g)
			}
			wg.Wait()
			if got := p.FixedFrames(); got != 0 {
				t.Errorf("fixed frames after storm = %d, want 0", got)
			}
			st := p.Stats()
			if st.Hits+st.Misses != st.Fixes {
				t.Errorf("hits %d + misses %d != fixes %d", st.Hits, st.Misses, st.Fixes)
			}
			if st.Evictions == 0 {
				t.Error("storm never evicted")
			}
			if st.LiveBytes > p.MaxBytes() {
				t.Errorf("live bytes %d exceed budget %d", st.LiveBytes, p.MaxBytes())
			}
		})
	}
}

// TestEvictionWriteBackReleasesShard: a dirty victim's device write runs
// without the shard lock. A fix of another page of the same shard proceeds
// while the write is in flight, a fix of the victim's own page waits for it
// and then reads back the written bytes, and a failed write-back puts the
// victim back at the head of the global order.
func TestEvictionWriteBackReleasesShard(t *testing.T) {
	dev := newDev(1<<10, 64)
	p := NewWithShards(4<<10, LRU, 4)
	victim := disk.PageID(0)
	sibling := disk.PageID(1)
	for p.shardFor(frameKey{dev, sibling}) != p.shardFor(frameKey{dev, victim}) {
		sibling++
	}
	others := []disk.PageID{}
	for pg := disk.PageID(1); len(others) < 2; pg++ {
		if pg != sibling {
			others = append(others, pg)
		}
	}
	load := func(pg disk.PageID, mark byte) {
		h, err := p.Fix(dev, pg)
		if err != nil {
			t.Fatal(err)
		}
		h.Bytes()[0] = mark
		h.MarkDirty()
		if err := h.Unfix(true); err != nil {
			t.Fatal(err)
		}
	}
	load(victim, 'V') // oldest
	load(sibling, 'S')
	load(others[0], 'A')
	load(others[1], 'B')

	// A failing write-back leaves the victim resident and still oldest.
	failing := errors.New("device refuses")
	p.SetWriteBarrier(func(disk.Dev, disk.PageID) error { return failing })
	if _, err := p.Fix(dev, 40); !errors.Is(err, failing) {
		t.Fatalf("fix over a failing write-back: %v", err)
	}
	if !p.residentKeys()[keyName(frameKey{dev, victim})] {
		t.Fatal("victim dropped after its write-back failed")
	}

	// Hold the retried write-back in flight.
	entered, release := make(chan struct{}), make(chan struct{})
	p.SetWriteBarrier(func(_ disk.Dev, pg disk.PageID) error {
		if pg == victim {
			close(entered)
			<-release
		}
		return nil
	})
	evicted := make(chan error, 1)
	go func() {
		h, err := p.Fix(dev, 40)
		if err == nil {
			err = h.Unfix(true)
		}
		evicted <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the victim whose write-back failed was not the next one evicted")
	}
	siblingDone := make(chan error, 1)
	go func() { // same shard as the victim: must not wait for the write
		h, err := p.Fix(dev, sibling)
		if err == nil {
			err = h.Unfix(true)
		}
		siblingDone <- err
	}()
	select {
	case err := <-siblingDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("a fix in the victim's shard waited for the write-back")
	}
	refixed := make(chan *Handle, 1)
	go func() {
		h, err := p.Fix(dev, victim)
		if err != nil {
			t.Error(err)
		}
		refixed <- h
	}()
	select {
	case <-refixed:
		t.Fatal("fix of the victim's page did not wait for its write-back")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-evicted; err != nil {
		t.Fatal(err)
	}
	h := <-refixed
	if h == nil {
		t.FailNow()
	}
	if h.Bytes()[0] != 'V' {
		t.Errorf("victim page reads back %q, want the written 'V'", h.Bytes()[0])
	}
	if err := h.Unfix(true); err != nil {
		t.Fatal(err)
	}
	if got := p.FixedFrames(); got != 0 {
		t.Errorf("fixed frames = %d, want 0", got)
	}
}
