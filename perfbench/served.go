package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/server"
)

// served is the server-ingest workload: an open loop at a fixed offered rate
// over two loopback TCP clients of an in-process server. 90% of requests
// divide transcript by courses; 10% insert one new student who takes every
// course, so writes run beside reads on the catalog. The per-query grant is
// below the transcript's footprint, so every divide takes the spilling
// recursive path. A request is timed from when it was due, so a stall also
// charges the requests queued behind it.
type served struct {
	cfg  workload.Config
	rate float64 // offered requests per second, both clients together

	srv     *server.Server
	serveWG sync.WaitGroup
	clients []*server.Client
	conns   []net.Conn // the clients' connections, for request deadlines
	inst    *workload.Instance
	courses []int64 // the divisor's course numbers
	base    map[int64]bool

	generateS, loadS []float64

	mu       sync.Mutex
	inserted map[int64]insertTimes
	seed     int64
	elapsed  time.Duration
	alloc    uint64
	insertMS []float64
	queuedMS []float64
	svcMS    []float64
	lateMS   []float64
	hits     int
	divides  int
	obs0     map[string]int64
	obs1     map[string]int64
}

const (
	// servedGrant is the per-query memory grant, below the transcript's
	// footprint so that every divide spills.
	servedGrant = 192 << 10
	// loadChunkRows is the rows per insert request while loading the tables.
	loadChunkRows = 4096
)

// insertTimes bound when an inserted student became visible: not before the
// request was sent, and certainly once it was acknowledged.
type insertTimes struct{ sent, acked time.Time }

func newServed(tiny bool) *served {
	w := &served{
		cfg: workload.Config{
			DivisorTuples:      16,
			QuotientCandidates: 4000,
			FullFraction:       0.25,
			MatchFraction:      0.5,
			Shuffle:            true,
		},
		rate: 40,
	}
	if tiny {
		w.cfg.QuotientCandidates = 100
		w.rate = 400
	}
	return w
}

func (w *served) setup(seed int64) error {
	cfg := w.cfg
	cfg.Seed = seed
	w.seed = seed
	var inst *workload.Instance
	d, err := diag(nil, "workload", "workload.Generate", func() (err error) {
		inst, err = generate(cfg)
		return err
	})
	if err != nil {
		return err
	}
	w.generateS = append(w.generateS, d.Seconds())
	w.inst = inst
	w.base = make(map[int64]bool, len(inst.QuotientIDs))
	for _, id := range inst.QuotientIDs {
		w.base[id] = true
	}
	w.courses = firstColumn(workload.CourseSchema, inst.Divisor)

	w.srv = server.NewServer(server.Options{QueryBytes: servedGrant})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.serveWG.Add(1)
	go func() {
		defer w.serveWG.Done()
		w.srv.Serve(ln) //nolint:errcheck // returns net.ErrClosed once close stops the server
	}()
	w.clients, w.conns = nil, nil
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		w.conns = append(w.conns, conn)
		w.clients = append(w.clients, server.NewClient(conn))
		if err := conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
			return err
		}
	}

	d, err = diag(nil, "server", "server.Client.Insert", func() error { return w.load(w.clients[0]) })
	if err != nil {
		return err
	}
	w.loadS = append(w.loadS, d.Seconds())
	// The first divide compiles and caches the plan; one per client also
	// warms both sessions.
	w.inserted = make(map[int64]insertTimes)
	for _, cl := range w.clients {
		sent := time.Now()
		resp, err := divideRequest(cl)
		if err == nil {
			err = w.check(resp, sent, time.Now())
		}
		if err != nil {
			return fmt.Errorf("warm-up divide: %w", err)
		}
	}
	return nil
}

// load creates the two tables and inserts the instance in chunks.
func (w *served) load(cl *server.Client) error {
	if err := cl.CreateTable("transcript", "student_id", "course_no"); err != nil {
		return err
	}
	if err := cl.CreateTable("courses", "course_no"); err != nil {
		return err
	}
	var rows [][]int64
	for _, course := range w.courses {
		rows = append(rows, []int64{course})
	}
	if err := cl.Insert("courses", rows); err != nil {
		return err
	}
	ts := workload.TranscriptSchema
	for lo := 0; lo < len(w.inst.Dividend); lo += loadChunkRows {
		hi := min(lo+loadChunkRows, len(w.inst.Dividend))
		rows = rows[:0]
		for _, t := range w.inst.Dividend[lo:hi] {
			rows = append(rows, []int64{ts.Int64(t, 0), ts.Int64(t, 1)})
		}
		if err := cl.Insert("transcript", rows); err != nil {
			return err
		}
	}
	return nil
}

func (w *served) close() {
	for _, cl := range w.clients {
		cl.Close()
	}
	w.clients = nil
	if w.srv != nil {
		w.srv.Close()
		w.serveWG.Wait()
		w.srv = nil
	}
}

// isInsert decides request i's kind from the seed: one in ten inserts.
func (w *served) isInsert(i int) bool {
	return splitmix(uint64(w.seed)*0x9E3779B97F4A7C15+uint64(i))%10 == 0
}

// splitmix is the SplitMix64 finalizer, a cheap well-mixed hash of x.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (w *served) run(r *runner) {
	w.obs0 = obs.Default.Snapshot()
	a0 := heapAllocBytes()
	start := time.Now().Add(10 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / w.rate)
	var wg sync.WaitGroup
	var last time.Time
	var lastMu sync.Mutex
	for g, cl := range w.clients {
		conn := w.conns[g]
		wg.Add(1)
		go func(g int, cl *server.Client) {
			defer wg.Done()
			for i := g; ; i += len(w.clients) {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(r.deadline) {
					return
				}
				time.Sleep(time.Until(due))
				// A reply that never comes fails the request instead of
				// hanging the run.
				if err := conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
					r.done(r.newOp(), err)
					return
				}
				c := r.newOp()
				r.done(c, w.request(c, cl, i, due))
				lastMu.Lock()
				if now := time.Now(); now.After(last) {
					last = now
				}
				lastMu.Unlock()
			}
		}(g, cl)
	}
	wg.Wait()
	w.alloc = heapAllocBytes() - a0
	w.elapsed = last.Sub(start)
	w.obs1 = obs.Default.Snapshot()
}

// request sends request i of the stream, due at due, and checks the reply.
func (w *served) request(c *opCtx, cl *server.Client, i int, due time.Time) error {
	sent := time.Now()
	late := 0.0
	if sent.After(due) {
		c.addTop("bench", "bench.late", due, sent)
		late = ms(sent.Sub(due))
	}
	if w.isInsert(i) {
		id := int64(10_000_000 + i)
		rows := make([][]int64, len(w.courses))
		for j, course := range w.courses {
			rows[j] = []int64{id, course}
		}
		w.mu.Lock()
		w.inserted[id] = insertTimes{sent: sent}
		w.mu.Unlock()
		err := c.call("server", "server.Client.Insert", func() error {
			return cl.Insert("transcript", rows)
		})
		if err != nil {
			return fmt.Errorf("insert: %w", err)
		}
		w.mu.Lock()
		w.inserted[id] = insertTimes{sent: sent, acked: time.Now()}
		if c.tr == nil {
			w.insertMS = append(w.insertMS, ms(c.wall))
		}
		w.lateMS = append(w.lateMS, late)
		w.mu.Unlock()
		return nil
	}
	var resp *server.Response
	var replied time.Time
	err := c.call("server", "server.Client.Do", func() (err error) {
		resp, err = divideRequest(cl)
		replied = time.Now()
		if err == nil && resp.QueuedMicros > 0 {
			// The server measured its admission wait; it lies inside this call.
			c.record("buffer", "buffer.Governor.Acquire", sent, sent.Add(time.Duration(resp.QueuedMicros)*time.Microsecond))
		}
		return err
	})
	if err == nil {
		err = w.check(resp, sent, replied)
	}
	if err != nil {
		return err
	}
	queued := float64(resp.QueuedMicros) / 1000
	w.mu.Lock()
	defer w.mu.Unlock()
	w.divides++
	if resp.CacheHit {
		w.hits++
	}
	w.lateMS = append(w.lateMS, late)
	if c.tr == nil {
		w.queuedMS = append(w.queuedMS, queued)
		w.svcMS = append(w.svcMS, ms(c.wall)-late-queued)
	}
	return nil
}

// divideRequest sends one divide and returns the reply, or its typed error.
func divideRequest(cl *server.Client) (*server.Response, error) {
	resp, err := cl.Do(server.Request{Op: "divide", Dividend: "transcript", Divisor: "courses"})
	if err != nil {
		return nil, err
	}
	return resp, resp.Err()
}

// check compares a divide's quotient, sent at sent and answered at replied,
// with what it may contain: every student of the generated quotient, every
// student whose insert was acknowledged before the divide was sent, and no
// one else but students whose insert had been sent before the reply arrived.
func (w *served) check(resp *server.Response, sent, replied time.Time) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := make(map[int64]bool, len(resp.Rows))
	for _, row := range resp.Rows {
		id := row[0]
		if seen[id] {
			return fmt.Errorf("divide: student %d returned twice", id)
		}
		seen[id] = true
		if w.base[id] {
			continue
		}
		ins, ok := w.inserted[id]
		if !ok || ins.sent.After(replied) {
			return fmt.Errorf("divide: student %d is not in the quotient", id)
		}
	}
	for id := range w.base {
		if !seen[id] {
			return fmt.Errorf("divide: quotient misses student %d", id)
		}
	}
	for id, ins := range w.inserted {
		if !ins.acked.IsZero() && ins.acked.Before(sent) && !seen[id] {
			return fmt.Errorf("divide: quotient misses student %d inserted before it was sent", id)
		}
	}
	return nil
}

func (w *served) report(r *runner, m map[string]float64) error {
	priced, err := pricedSerial(w.inst)
	if err != nil {
		return err
	}
	m["priced_cost_ms"] = priced
	m["workload.generate_s"] = median(w.generateS)
	m["workload.load_s"] = median(w.loadS)
	ok := r.attempted - r.failed
	if w.elapsed > 0 {
		m["ops_per_s"] = float64(ok) / w.elapsed.Seconds()
	}
	if ok > 0 {
		m["alloc_mb_per_op"] = float64(w.alloc) / float64(ok) / 1e6
	}
	m["server.insert_ms_p50"] = median(w.insertMS)
	m["server.queued_ms_p95"] = percentile(w.queuedMS, 95)
	m["server.service_ms_p50"] = median(w.svcMS)
	m["server.gen_late_ms_p95"] = percentile(w.lateMS, 95)
	if w.divides > 0 {
		n := float64(w.divides)
		delta := func(name string) float64 { return float64(w.obs1[name] - w.obs0[name]) }
		m["server.cache_hit_rate"] = float64(w.hits) / n
		m["rewrite.compiles_per_op"] = delta("rewrite.compiles") / n
		m["division.spill_kb_per_op"] = delta("division.spill.bytes") / 1024 / n
		m["division.repartitions_per_op"] = delta("division.repartitions") / n
		m["division.wasted_tuples_per_op"] = delta("division.attempts.wasted_tuples") / n
		m["division.max_depth"] = float64(w.obs1["division.spill.depth.max"])
	}
	return nil
}
