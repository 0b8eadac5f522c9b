// Package buffer implements the buffer manager of the paper's substrate
// (§5.1): a pool of page frames with a fix/unfix interface, LRU replacement,
// dynamic growth up to a memory limit, write-back of dirty pages, and
// "virtual" frames for intermediate results that live only in the pool and
// disappear when evicted.
//
// Scans and operators above receive direct references into the pool
// ("copying is avoided as scans give memory addresses to records fixed in the
// buffer pool"), so a frame's bytes stay valid exactly while it is fixed.
//
// # Sharding
//
// The pool is sharded by page-id hash into independent shards, each with its
// own mutex, frame table, LRU/Clock victim list, checksum table, and
// statistics. Concurrent fixes of different pages therefore contend only when
// the pages hash to the same shard. The memory budget stays global: frame
// bytes are reserved against one atomic counter.
//
// The replacement order is global too. Every frame that joins a victim list
// takes a tick from one pool-wide counter: a frame kept for reuse takes the
// next positive tick (the warm end), a frame released with the "replace
// immediately" hint the next negative one (the cold end). Each shard's list
// is therefore sorted by tick, the pool's oldest victim is the smallest
// shard front, and the union of the lists is exactly the single list an
// unsharded pool would keep. Each shard publishes its front's tick in an
// atomic; an evictor visits shards oldest front first with TryLock and skips
// a busy shard, so evictors never queue behind one another's device writes.
// A Clock second chance re-queues the frame with a fresh tick and re-picks
// the global oldest, and DropClean drops (and writes back) every victim in
// tick order. Single-threaded, evictions, write-backs and device seeks are
// exactly those of a one-shard pool; under concurrency a skipped shard makes
// the order approximate.
//
// Each shard has a second lock, wb, held across every write-back of one of
// its frames: a shard writes back one page at a time, so a one-shard pool
// serializes all write-backs, while an eviction's device write runs without
// the shard's main lock — the victim is off the victim list and marked
// evicting, fixes of its page wait for the write, and fixes of the shard's
// other pages go on. Locks are taken wb before mu, and at most one shard's
// at a time, so cross-shard eviction cannot deadlock. Aggregate Stats() sums
// the shards under their locks for a consistent snapshot.
//
// # Recycled frames
//
// A frame's page buffer outlives the frame: eviction and DropClean put it on
// a pool-wide free list once its write-back has finished, and the next miss,
// read-ahead or NewPage of the same size takes it from there, so a pool
// under eviction allocates nothing per miss. Reservation is unchanged — the
// budget counts resident frames — and the list holds at most the budget's
// worth of bytes. A slice from Handle.Bytes therefore aliases some other
// page once its frame is gone; in race-detector builds every recycled
// buffer is filled with poisonByte, so such a use after Unfix corrupts
// results loudly instead of reading stale memory.
//
// No shard lock is ever held across a device read: a miss installs a loading
// placeholder, releases the shard lock, performs the read, and then publishes
// the bytes. Concurrent fixes of the page being loaded wait on the
// placeholder instead of issuing a duplicate read.
//
// # Fault tolerance
//
// The pool is the integrity boundary of the storage path. Every page it
// writes back is checksummed (disk.Checksum) and the checksum is verified
// when the page is next read into a frame. Transient device faults
// (disk.IsTransient) and checksum mismatches are retried with bounded
// exponential backoff (RetryPolicy); a mismatch that survives all retries
// surfaces as *disk.CorruptPageError carrying the device name and page id.
// Pages never written through the pool (e.g. read before first write) have
// no recorded checksum and are not verified.
package buffer

import (
	"cmp"
	"container/list"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/disk"
)

// Errors reported by the pool.
var (
	// ErrNoMemory means every frame is fixed and the pool is at its limit.
	ErrNoMemory = errors.New("buffer: pool exhausted, all frames fixed")
	// ErrEvicted means a virtual page was evicted and its data is gone.
	ErrEvicted = errors.New("buffer: virtual page was evicted")
	// ErrNotFixed is returned when releasing a handle twice.
	ErrNotFixed = errors.New("buffer: page not fixed")
)

// Policy selects the replacement policy.
type Policy int

const (
	// LRU replaces the least recently unfixed frame, honoring the unfix
	// hint (immediately-replaceable frames go to the front of the queue).
	// It is the paper's policy ("inserted into an LRU list").
	LRU Policy = iota
	// Clock is the second-chance policy: frames carry a reference bit set
	// on unfix-with-keep; the evicting sweep clears set bits and evicts
	// the first frame found clear. Cheaper bookkeeping per hit in real
	// systems, provided as an ablation here.
	Clock
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// RetryPolicy bounds how the pool reissues faulted transfers. Attempts
// counts total tries (first try included); Backoff is the sleep before the
// first retry, doubling per retry. The zero value disables retries entirely
// (one attempt, no verification is still performed).
type RetryPolicy struct {
	Attempts int
	Backoff  time.Duration
}

// DefaultRetryPolicy is what New installs: four attempts with a short
// doubling backoff — enough to ride out injected transient faults without
// stalling tests.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Attempts: 4, Backoff: 50 * time.Microsecond}
}

func (rp RetryPolicy) attempts() int {
	if rp.Attempts < 1 {
		return 1
	}
	return rp.Attempts
}

// PaperPoolBytes is the paper's initial 256 KB buffer size.
const PaperPoolBytes = 256 * 1024

// PaperSortBytes is the paper's 100 KB sort space.
const PaperSortBytes = 100 * 1024

// minShardBytes is the smallest memory budget worth a shard of its own;
// pools below 2*minShardBytes get a single shard.
const minShardBytes = 32 * 1024

// maxDefaultShards caps the shard count New picks on its own; NewWithShards
// accepts any count.
const maxDefaultShards = 8

// defaultShards picks a power-of-two shard count scaled to the memory
// budget.
func defaultShards(maxBytes int) int {
	n := maxBytes / minShardBytes
	if n < 1 {
		return 1
	}
	if n > maxDefaultShards {
		n = maxDefaultShards
	}
	// Round down to a power of two so shard selection is a mask.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

type frameKey struct {
	dev  disk.Dev // nil for virtual frames
	page disk.PageID
}

type frame struct {
	key        frameKey
	home       *shard
	data       []byte
	fixCount   int
	dirty      bool
	virtual    bool
	prefetched bool          // loaded by the prefetcher, not yet fixed
	loading    bool          // a reader owns this frame; data not yet valid
	evicting   bool          // off the victim list, write-back in flight under home.wb
	ready      chan struct{} // closed when loading completes (or fails)
	ref        bool          // Clock reference bit
	lruElem    *list.Element // non-nil iff on the victim list (fixCount == 0)
	tick       int64         // global victim order while on the list; smaller = older
}

// Stats describe pool behaviour since creation or the last ResetStats.
type Stats struct {
	Fixes           int // Fix calls served; always equals Hits + Misses
	Hits            int // Fix found the page resident
	Misses          int // Fix had to read the page from its device
	Evictions       int // frames pushed out to make room
	WriteBacks      int // dirty frames written to their device on eviction/flush
	PeakBytes       int // high-water mark of pool memory
	LiveBytes       int // current pool memory
	VirtualLost     int // virtual frames discarded by eviction
	Retries         int // transfers reissued after a transient fault or mismatch
	ChecksumFails   int // reads whose content did not match the recorded checksum
	PrefetchIssued  int // asynchronous read-aheads started
	PrefetchHits    int // fixes satisfied by a prefetched frame
	PrefetchWasted  int // prefetched frames evicted or dropped before any fix
	PrefetchDropped int // read-aheads declined (window full or load failed)
	_               [0]byte
}

// add folds o into s (the byte-level fields are left alone).
func (s *Stats) add(o Stats) {
	s.Fixes += o.Fixes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
	s.VirtualLost += o.VirtualLost
	s.Retries += o.Retries
	s.ChecksumFails += o.ChecksumFails
}

// noVictim is the published front tick of a shard with an empty victim list.
const noVictim = math.MaxInt64

// shard is one independently locked slice of the pool: its own frame table,
// victim list, checksum table, and counters. mu guards the shard's state;
// wb is held across every write-back of one of its frames, so a shard writes
// back one page at a time. Whoever takes both takes wb first.
type shard struct {
	id        int
	mu        sync.Mutex
	wb        sync.Mutex
	frames    map[frameKey]*frame
	lru       *list.List   // unpinned frames in tick order; front = oldest
	front     atomic.Int64 // tick of lru.Front(), or noVictim; written under mu
	checksums map[frameKey]uint64
	stats     Stats
}

// publishLocked republishes the tick of the victim list's front.
func (s *shard) publishLocked() {
	t := int64(noVictim)
	if el := s.lru.Front(); el != nil {
		t = el.Value.(*frame).tick
	}
	s.front.Store(t)
}

// removeLocked takes f off the victim list.
func (s *shard) removeLocked(f *frame) {
	s.lru.Remove(f.lruElem)
	f.lruElem = nil
	s.publishLocked()
}

// requeueLocked puts f back on the victim list at the place its tick gives
// it, after a failed write-back took it off.
func (s *shard) requeueLocked(f *frame) {
	el := s.lru.Front()
	for el != nil && el.Value.(*frame).tick < f.tick {
		el = el.Next()
	}
	if el == nil {
		f.lruElem = s.lru.PushBack(f)
	} else {
		f.lruElem = s.lru.InsertBefore(f, el)
	}
	s.publishLocked()
}

// Pool is the buffer manager. It is safe for concurrent use.
type Pool struct {
	maxBytes int
	policy   Policy
	shards   []*shard
	mask     uint64 // len(shards)-1 when power of two, else 0 and mod is used

	curBytes  atomic.Int64
	peakBytes atomic.Int64
	clock     atomic.Int64 // victim ticks handed out so far
	nextVirt  atomic.Int64
	retry     atomic.Pointer[RetryPolicy]

	prefetcher atomic.Pointer[Prefetcher]
	hooks      atomic.Pointer[Hooks]
	barrier    atomic.Pointer[WriteBarrier]

	pfIssued  atomic.Int64
	pfHits    atomic.Int64
	pfWasted  atomic.Int64
	pfDropped atomic.Int64

	free freeList
}

// poisonByte fills recycled page buffers when poisonFrames is set.
const poisonByte = 0xDB

// freeList holds the page buffers of frames that left the pool, by size.
type freeList struct {
	mu     sync.Mutex
	bySize map[int][][]byte
	bytes  int
}

// getBuf returns an n-byte page buffer, recycled when the free list has one.
// Its contents are arbitrary: callers overwrite or clear it.
func (p *Pool) getBuf(n int) []byte {
	fl := &p.free
	fl.mu.Lock()
	if bufs := fl.bySize[n]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		bufs[len(bufs)-1] = nil
		fl.bySize[n] = bufs[:len(bufs)-1]
		fl.bytes -= n
		fl.mu.Unlock()
		return b
	}
	fl.mu.Unlock()
	return make([]byte, n)
}

// putBuf recycles the buffer of a frame that is gone from its shard and
// whose write-back, if any, has finished. Beyond the pool budget it is left
// to the garbage collector.
func (p *Pool) putBuf(b []byte) {
	if poisonFrames && len(b) > 0 {
		// Doubling copies: a handful of instrumented calls in race builds
		// instead of one instrumented store per byte.
		b[0] = poisonByte
		for n := 1; n < len(b); n *= 2 {
			copy(b[n:], b[:n])
		}
	}
	fl := &p.free
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.bytes+len(b) > p.maxBytes {
		return
	}
	if fl.bySize == nil {
		fl.bySize = make(map[int][][]byte)
	}
	fl.bySize[len(b)] = append(fl.bySize[len(b)], b)
	fl.bytes += len(b)
}

// New creates an LRU pool limited to maxBytes of frame memory. The pool
// starts empty and grows on demand ("the buffer pool grows dynamically until
// the main memory pool is exhausted, and shrinks as buffer slots are
// unfixed"). The shard count scales with the budget (one shard per 32 KB,
// capped at 8); use NewWithShards for explicit control.
func New(maxBytes int) *Pool {
	return NewWithPolicy(maxBytes, LRU)
}

// NewWithPolicy creates a pool with an explicit replacement policy.
func NewWithPolicy(maxBytes int, policy Policy) *Pool {
	return NewWithShards(maxBytes, policy, defaultShards(maxBytes))
}

// NewWithShards creates a pool with an explicit shard count. Every count
// evicts in the same global order; a single shard serializes every fix
// behind one lock and every write-back behind another (useful as a
// contention baseline). Counts that are not powers of two work but select
// shards by modulo instead of mask.
func NewWithShards(maxBytes int, policy Policy, nshards int) *Pool {
	if maxBytes <= 0 {
		panic(fmt.Sprintf("buffer: pool size must be positive, got %d", maxBytes))
	}
	if nshards < 1 {
		panic(fmt.Sprintf("buffer: shard count must be positive, got %d", nshards))
	}
	p := &Pool{
		maxBytes: maxBytes,
		policy:   policy,
		shards:   make([]*shard, nshards),
	}
	if nshards&(nshards-1) == 0 {
		p.mask = uint64(nshards - 1)
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			id:        i,
			frames:    make(map[frameKey]*frame),
			lru:       list.New(),
			checksums: make(map[frameKey]uint64),
		}
		p.shards[i].front.Store(noVictim)
	}
	rp := DefaultRetryPolicy()
	p.retry.Store(&rp)
	return p
}

// shardFor hashes a frame key to its home shard. Virtual frames use the
// same page-id hash over their private id space.
func (p *Pool) shardFor(key frameKey) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	// Fibonacci hashing spreads the dense sequential page ids scans produce.
	h := (uint64(uint32(key.page)) + 1) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	if p.mask != 0 {
		return p.shards[h&p.mask]
	}
	return p.shards[h%uint64(len(p.shards))]
}

// NumShards reports how many independently locked shards the pool has.
func (p *Pool) NumShards() int { return len(p.shards) }

// PolicyName reports the configured replacement policy.
func (p *Pool) PolicyName() Policy { return p.policy }

// SetRetryPolicy replaces the transfer retry policy (DefaultRetryPolicy by
// default). A zero RetryPolicy disables retries; checksum verification stays
// on regardless.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	p.retry.Store(&rp)
}

func (p *Pool) retryPolicy() RetryPolicy { return *p.retry.Load() }

// MaxBytes returns the configured memory limit.
func (p *Pool) MaxBytes() int { return p.maxBytes }

// Handle is a fixed page. Bytes stay valid until Unfix.
type Handle struct {
	pool *Pool
	f    *frame
}

// Bytes returns the frame contents. The slice aliases pool memory; it must
// not be used after Unfix.
func (h *Handle) Bytes() []byte { return h.f.data }

// Page returns the backing page id (InvalidPage for virtual frames).
func (h *Handle) Page() disk.PageID {
	if h.f.virtual {
		return disk.InvalidPage
	}
	return h.f.key.page
}

// MarkDirty records that the frame was modified and must be written back.
func (h *Handle) MarkDirty() {
	s := h.f.home
	s.mu.Lock()
	h.f.dirty = true
	s.mu.Unlock()
}

// Unfix releases the handle. keepLRU=true inserts the frame into the LRU
// list for possible reuse; keepLRU=false marks it immediately replaceable
// (front of the list), the paper's "can be replaced immediately" hint.
func (h *Handle) Unfix(keepLRU bool) error {
	p := h.pool
	s := h.f.home
	s.mu.Lock()
	defer s.mu.Unlock()
	f := h.f
	if f.fixCount <= 0 {
		return ErrNotFixed
	}
	f.fixCount--
	if f.fixCount == 0 {
		if p.policy == Clock {
			f.ref = keepLRU // second chance iff the caller wants it kept
			p.queueLocked(s, f, true)
		} else {
			p.queueLocked(s, f, keepLRU)
		}
	}
	return nil
}

// queueLocked puts an unpinned frame on its shard's victim list with the
// next global tick: positive at the warm end (back), negative at the cold
// end (front). The newest cold frame thus has the smallest tick of all, the
// newest warm frame the largest, and every list stays sorted by tick.
func (p *Pool) queueLocked(s *shard, f *frame, warm bool) {
	t := p.clock.Add(1)
	if warm {
		f.tick = t
		f.lruElem = s.lru.PushBack(f)
	} else {
		f.tick = -t
		f.lruElem = s.lru.PushFront(f)
	}
	s.publishLocked()
}

// WriteBarrier gates dirty-page write-back. When one is installed, the pool
// invokes it with the destination device and page before any dirty frame's
// bytes are written (eviction, FlushAll, DropClean); an error aborts the
// write-back. The write-ahead logging layer uses this to enforce the
// WAL-before-data invariant: the barrier blocks until the log record
// covering the page's latest change is durable, so no data page can reach
// its device ahead of its log record.
type WriteBarrier func(dev disk.Dev, page disk.PageID) error

// SetWriteBarrier installs the write-back barrier (nil removes it). The
// barrier runs while the pool holds locks of the page's shard and must not
// re-enter the pool; it may block (e.g. on a group commit joining a device
// sync).
func (p *Pool) SetWriteBarrier(b WriteBarrier) {
	if b == nil {
		p.barrier.Store(nil)
		return
	}
	p.barrier.Store(&b)
}

// writePage writes a frame's bytes to its device, retrying transient faults
// per the retry policy, and returns the page checksum to record for
// verification on the next read. The caller holds the shard's wb lock and
// keeps the bytes stable: the frame is unfixed and either under the shard
// lock or off the victim list with evicting set, so nobody can fix it.
func (p *Pool) writePage(key frameKey, data []byte) (sum uint64, retries int, err error) {
	if b := p.barrier.Load(); b != nil {
		if err := (*b)(key.dev, key.page); err != nil {
			return 0, 0, fmt.Errorf("buffer: write barrier for page %d on %s: %w", key.page, key.dev.Name(), err)
		}
	}
	rp := p.retryPolicy()
	backoff := rp.Backoff
	for attempt := 0; attempt < rp.attempts(); attempt++ {
		if attempt > 0 {
			retries++
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		err = key.dev.Write(key.page, data)
		if err == nil {
			return disk.Checksum(data), retries, nil
		}
		if !disk.IsTransient(err) {
			return 0, retries, err
		}
	}
	return 0, retries, fmt.Errorf("buffer: write of page %d on %s gave up after %d attempts: %w",
		key.page, key.dev.Name(), rp.attempts(), err)
}

// writePageLocked is writePage for a caller holding both of s's locks; it
// folds the outcome into the shard's checksums and statistics.
func (p *Pool) writePageLocked(s *shard, f *frame) error {
	sum, retries, err := p.writePage(f.key, f.data)
	s.stats.Retries += retries
	if err != nil {
		return err
	}
	s.checksums[f.key] = sum
	s.stats.WriteBacks++
	return nil
}

// readPage reads a page into data without holding any shard lock, retrying
// transient faults and checksum mismatches (in-flight corruption heals on
// re-read); a mismatch that outlives the retries is permanent corruption and
// surfaces as *disk.CorruptPageError. Pages without a recorded checksum —
// never written through this pool — are not verified (verify=false). The
// retry and mismatch counts are returned so the caller can fold them into
// shard statistics under the lock.
func (p *Pool) readPage(key frameKey, data []byte, want uint64, verify bool) (retries, csFails int, err error) {
	rp := p.retryPolicy()
	backoff := rp.Backoff
	for attempt := 0; attempt < rp.attempts(); attempt++ {
		if attempt > 0 {
			retries++
			if backoff > 0 {
				time.Sleep(backoff)
				backoff *= 2
			}
		}
		err = key.dev.Read(key.page, data)
		if err != nil {
			if disk.IsTransient(err) {
				continue
			}
			return retries, csFails, err
		}
		if !verify {
			return retries, csFails, nil
		}
		got := disk.Checksum(data)
		if got == want {
			return retries, csFails, nil
		}
		csFails++
		err = &disk.CorruptPageError{Device: key.dev.Name(), Page: key.page, Want: want, Got: got}
	}
	if disk.IsTransient(err) {
		err = fmt.Errorf("buffer: read of page %d on %s gave up after %d attempts: %w",
			key.page, key.dev.Name(), rp.attempts(), err)
	}
	return retries, csFails, err
}

// reserve claims need bytes of the global budget, evicting the pool's oldest
// unpinned frames until the claim fits. It never holds a shard lock while
// looping, so concurrent reservations make independent progress.
func (p *Pool) reserve(need int) error {
	if need > p.maxBytes {
		return fmt.Errorf("%w: frame of %d bytes exceeds pool of %d", ErrNoMemory, need, p.maxBytes)
	}
	for {
		cur := p.curBytes.Load()
		if cur+int64(need) <= int64(p.maxBytes) {
			if !p.curBytes.CompareAndSwap(cur, cur+int64(need)) {
				continue
			}
			for {
				pk := p.peakBytes.Load()
				if cur+int64(need) <= pk || p.peakBytes.CompareAndSwap(pk, cur+int64(need)) {
					return nil
				}
			}
		}
		evicted, err := p.evictOne()
		if err != nil {
			return err
		}
		if !evicted {
			if p.curBytes.Load() != cur {
				continue // a concurrent eviction or release moved the budget
			}
			return fmt.Errorf("%w: need %d bytes, %d in use", ErrNoMemory, need, cur)
		}
	}
}

// release returns reserved bytes to the global budget.
func (p *Pool) release(n int) { p.curBytes.Add(-int64(n)) }

// evictOne evicts the pool's oldest unpinned frame, honoring Clock second
// chances: a set reference bit is cleared, the frame re-queued at the warm
// end, and the global oldest picked again. Returns false when no shard has
// an evictable frame.
func (p *Pool) evictOne() (bool, error) {
	for {
		s := p.lockOldest()
		if s == nil {
			return false, nil
		}
		f := s.lru.Front().Value.(*frame)
		if p.policy == Clock && f.ref {
			f.ref = false
			s.removeLocked(f)
			p.queueLocked(s, f, true)
			s.mu.Unlock()
			s.wb.Unlock()
			continue
		}
		wasted := f.prefetched
		err := p.evictLocked(s, f)
		s.mu.Unlock()
		s.wb.Unlock()
		if err != nil {
			return false, err
		}
		if wasted {
			p.notePrefetchWasted()
		}
		p.noteEviction(s.id)
		return true, nil
	}
}

// lockOldest returns, with both its locks held, the shard whose victim list
// front is the pool's oldest. A shard either of whose locks is busy —
// typically wb, across another evictor's write-back — is skipped for the
// next oldest; only when every candidate is busy does it wait, on the
// oldest. Returns nil when no shard publishes a victim.
func (p *Pool) lockOldest() *shard {
	type cand struct {
		s    *shard
		tick int64
	}
	var buf [maxDefaultShards]cand
	for {
		order := buf[:0]
		for _, s := range p.shards {
			if t := s.front.Load(); t != noVictim {
				order = append(order, cand{s, t})
				for i := len(order) - 1; i > 0 && order[i].tick < order[i-1].tick; i-- {
					order[i], order[i-1] = order[i-1], order[i]
				}
			}
		}
		if len(order) == 0 {
			return nil
		}
		for _, c := range order {
			if !c.s.wb.TryLock() {
				continue
			}
			if c.s.mu.TryLock() {
				if c.s.lru.Len() > 0 {
					return c.s
				}
				c.s.mu.Unlock()
			}
			c.s.wb.Unlock()
		}
		s := order[0].s
		s.wb.Lock()
		s.mu.Lock()
		if s.lru.Len() > 0 {
			return s
		}
		s.mu.Unlock()
		s.wb.Unlock()
	}
}

// evictLocked removes victim f from s, writing back a dirty real frame and
// discarding a virtual one; the caller holds both of s's locks. The device
// write runs with only wb held: f is off the victim list and marked
// evicting, so a fix of its page waits for wb while fixes of the shard's
// other pages go on. A failed write-back puts the frame back at its place in
// the victim order so a later attempt can retry.
func (p *Pool) evictLocked(s *shard, f *frame) error {
	s.removeLocked(f)
	if f.dirty && !f.virtual {
		f.evicting = true
		s.mu.Unlock()
		sum, retries, err := p.writePage(f.key, f.data)
		s.mu.Lock()
		s.stats.Retries += retries
		f.evicting = false
		if err != nil {
			s.requeueLocked(f)
			return fmt.Errorf("buffer: write-back: %w", err)
		}
		s.checksums[f.key] = sum
		f.dirty = false
		s.stats.WriteBacks++
	}
	if f.virtual {
		s.stats.VirtualLost++
	}
	delete(s.frames, f.key)
	p.putBuf(f.data)
	p.release(len(f.data))
	s.stats.Evictions++
	return nil
}

// pinLocked marks an existing frame fixed, removing it from the victim list.
func (s *shard) pinLocked(f *frame) {
	if f.lruElem != nil {
		s.removeLocked(f)
	}
	f.fixCount++
}

// Fix pins the given device page in the pool, reading it from the device if
// it is not resident, and returns a handle to its bytes. Reads are verified
// against the page's recorded checksum and retried on transient faults; see
// the package comment for the fault-tolerance contract.
//
// A miss installs a loading placeholder and performs the device read with no
// shard lock held; concurrent fixes of the same page wait for that read
// instead of duplicating it. If the read fails, the waiters retry as
// initiators with the full retry policy — this is also how a dropped
// prefetch re-surfaces its error on the synchronous path.
func (p *Pool) Fix(dev disk.Dev, page disk.PageID) (*Handle, error) {
	key := frameKey{dev: dev, page: page}
	s := p.shardFor(key)
	for {
		s.mu.Lock()
		if f, ok := s.frames[key]; ok {
			if f.loading {
				ready := f.ready
				s.mu.Unlock()
				<-ready
				continue
			}
			if f.evicting {
				// The evictor holds wb until the frame is gone (or back
				// on the victim list after a failed write).
				s.mu.Unlock()
				s.wb.Lock()
				s.wb.Unlock()
				continue
			}
			s.stats.Fixes++
			s.stats.Hits++
			hitPrefetch := f.prefetched
			f.prefetched = false
			s.pinLocked(f)
			s.mu.Unlock()
			if hitPrefetch {
				p.notePrefetchHit()
			}
			return &Handle{pool: p, f: f}, nil
		}
		// Miss: own the slot with a loading placeholder, then read with no
		// lock held.
		f := &frame{
			key:      key,
			home:     s,
			fixCount: 1,
			loading:  true,
			ready:    make(chan struct{}),
		}
		s.frames[key] = f
		want, verify := s.checksums[key]
		s.stats.Fixes++
		s.stats.Misses++
		s.mu.Unlock()

		var data []byte
		err := p.reserve(dev.PageSize())
		var retries, csFails int
		if err == nil {
			data = p.getBuf(dev.PageSize())
			retries, csFails, err = p.readPage(key, data, want, verify)
			if err != nil {
				p.putBuf(data)
				p.release(dev.PageSize())
			}
		}

		s.mu.Lock()
		s.stats.Retries += retries
		s.stats.ChecksumFails += csFails
		if err != nil {
			delete(s.frames, key)
			f.loading = false
			close(f.ready)
			s.mu.Unlock()
			return nil, err
		}
		f.data = data
		f.loading = false
		close(f.ready)
		s.mu.Unlock()
		return &Handle{pool: p, f: f}, nil
	}
}

// NewPage allocates a fresh page on the device and fixes a zeroed frame for
// it without reading (the page is new, so its device content is irrelevant).
// The frame starts dirty so it reaches the device on eviction or flush.
func (p *Pool) NewPage(dev disk.Dev) (disk.PageID, *Handle, error) {
	page := dev.Alloc()
	key := frameKey{dev: dev, page: page}
	s := p.shardFor(key)
	if err := p.reserve(dev.PageSize()); err != nil {
		return disk.InvalidPage, nil, err
	}
	data := p.getBuf(dev.PageSize())
	clear(data)
	f := &frame{key: key, home: s, data: data, dirty: true, fixCount: 1}
	s.mu.Lock()
	s.frames[key] = f
	s.mu.Unlock()
	return page, &Handle{pool: p, f: f}, nil
}

// FixVirtual creates an anonymous frame of the given size that exists only in
// the pool. Re-fixing it after eviction returns ErrEvicted; virtual frames
// model the paper's virtual devices for intermediate results.
func (p *Pool) FixVirtual(size int) (*Handle, error) {
	key := frameKey{dev: nil, page: disk.PageID(p.nextVirt.Add(1) - 1)}
	s := p.shardFor(key)
	if err := p.reserve(size); err != nil {
		return nil, err
	}
	data := p.getBuf(size)
	clear(data)
	f := &frame{key: key, home: s, data: data, virtual: true, fixCount: 1}
	s.mu.Lock()
	s.frames[key] = f
	s.mu.Unlock()
	return &Handle{pool: p, f: f}, nil
}

// Refix pins a handle's frame again if it is still resident. For virtual
// frames that were evicted it returns ErrEvicted.
func (p *Pool) Refix(h *Handle) (*Handle, error) {
	s := h.f.home
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frames[h.f.key]
	if !ok || f != h.f || f.evicting {
		if h.f.virtual {
			return nil, ErrEvicted
		}
		return nil, fmt.Errorf("buffer: page %d no longer resident", h.f.key.page)
	}
	s.pinLocked(f)
	return &Handle{pool: p, f: f}, nil
}

// FlushAll writes every dirty real frame back to its device. Fixed frames are
// flushed but stay resident and fixed.
func (p *Pool) FlushAll() error {
	for _, s := range p.shards {
		// Holding wb first lets any in-flight eviction write-back finish.
		s.wb.Lock()
		s.mu.Lock()
		for _, f := range s.frames {
			if f.dirty && !f.virtual && !f.loading {
				if err := p.writePageLocked(s, f); err != nil {
					s.mu.Unlock()
					s.wb.Unlock()
					return fmt.Errorf("buffer: flush: %w", err)
				}
				f.dirty = false
			}
		}
		s.mu.Unlock()
		s.wb.Unlock()
	}
	return nil
}

// DropClean discards every unfixed frame, oldest first in the global victim
// order, writing dirty real frames back on the way out, so the device sees
// the write-backs in the order a one-shard pool would issue them. Used
// between experiment runs to cold-start the cache. Frames fixed while it
// runs stay resident; eviction write-backs in flight finish first.
func (p *Pool) DropClean() error {
	type victim struct {
		f    *frame
		tick int64
	}
	var victims []victim
	for _, s := range p.shards {
		s.wb.Lock()
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			f := el.Value.(*frame)
			victims = append(victims, victim{f, f.tick})
		}
		s.mu.Unlock()
		s.wb.Unlock()
	}
	slices.SortFunc(victims, func(a, b victim) int { return cmp.Compare(a.tick, b.tick) })
	for _, v := range victims {
		f, s := v.f, v.f.home
		s.wb.Lock()
		s.mu.Lock()
		if f.lruElem == nil { // fixed or evicted since the snapshot
			s.mu.Unlock()
			s.wb.Unlock()
			continue
		}
		if f.dirty && !f.virtual {
			if err := p.writePageLocked(s, f); err != nil {
				s.mu.Unlock()
				s.wb.Unlock()
				return fmt.Errorf("buffer: drop: %w", err)
			}
		}
		wasted := f.prefetched
		s.removeLocked(f)
		delete(s.frames, f.key)
		p.putBuf(f.data)
		p.release(len(f.data))
		s.mu.Unlock()
		s.wb.Unlock()
		if wasted {
			p.notePrefetchWasted()
		}
	}
	return nil
}

// Stats returns a consistent snapshot of pool statistics: all shard locks
// are held simultaneously while summing, so the Hits+Misses == Fixes
// invariant holds in every snapshot even under concurrent fixes.
func (p *Pool) Stats() Stats {
	for _, s := range p.shards {
		s.mu.Lock()
	}
	var out Stats
	for _, s := range p.shards {
		out.add(s.stats)
	}
	for i := len(p.shards) - 1; i >= 0; i-- {
		p.shards[i].mu.Unlock()
	}
	out.LiveBytes = int(p.curBytes.Load())
	out.PeakBytes = int(p.peakBytes.Load())
	out.PrefetchIssued = int(p.pfIssued.Load())
	out.PrefetchHits = int(p.pfHits.Load())
	out.PrefetchWasted = int(p.pfWasted.Load())
	out.PrefetchDropped = int(p.pfDropped.Load())
	return out
}

// ShardStats returns each shard's own counters (aggregate byte and prefetch
// fields are left zero). Shards are snapshotted one at a time.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (resident pages stay).
func (p *Pool) ResetStats() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.stats = Stats{}
		s.mu.Unlock()
	}
	p.peakBytes.Store(0)
	p.pfIssued.Store(0)
	p.pfHits.Store(0)
	p.pfWasted.Store(0)
	p.pfDropped.Store(0)
}

// FixedFrames reports how many frames are currently pinned, for leak checks
// in tests. In-flight prefetch loads count as pinned until they publish;
// call (*Prefetcher).Drain first for a quiescent count.
func (p *Pool) FixedFrames() int {
	n := 0
	for _, s := range p.shards {
		s.mu.Lock()
		for _, f := range s.frames {
			if f.fixCount > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
