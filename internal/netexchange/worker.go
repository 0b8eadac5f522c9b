package netexchange

import (
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/bitmap"
	"repro/internal/buffer"
	"repro/internal/disk"
	"repro/internal/division"
	"repro/internal/exec"
	"repro/internal/hashtab"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// RemoteError is a failure reported by the peer through a frameError frame:
// the remote side's own description of why it abandoned the job. Code
// carries the peer's classification byte, so budget and recursion-depth
// failures inside a remote worker stay matchable with errors.Is against the
// division sentinels on this side of the wire.
type RemoteError struct {
	Code byte
	Msg  string
}

func (e *RemoteError) Error() string { return "netexchange: remote failure: " + e.Msg }

// Unwrap maps the wire classification back onto the local sentinel, if any.
func (e *RemoteError) Unwrap() error {
	switch e.Code {
	case errCodeBudget:
		return division.ErrMemoryBudget
	case errCodeDepth:
		return division.ErrPartitionDepth
	}
	return nil
}

// frameBatcher packs tuples into exec.Batch arenas and flushes each full
// arena as one zero-copy frame — the write-combining stage of both the
// coordinator's dividend shuffle and the worker's result emission.
type frameBatcher struct {
	w     io.Writer
	b     *exec.Batch
	typ   byte
	phase uint16
	size  int

	frames int64
	tuples int64
	bytes  int64
}

func newFrameBatcher(w io.Writer, schema *tuple.Schema, typ byte, phase uint16, size int) *frameBatcher {
	return &frameBatcher{w: w, b: exec.NewBatch(schema, size), typ: typ, phase: phase, size: size}
}

func (fb *frameBatcher) add(t tuple.Tuple) error {
	fb.b.Append(t)
	if fb.b.Len() >= fb.size {
		return fb.flush()
	}
	return nil
}

func (fb *frameBatcher) flush() error {
	if fb.b.Len() == 0 {
		return nil
	}
	n, err := writeRawFrame(fb.w, FrameHeader{Type: fb.typ, Phase: fb.phase, Count: uint32(fb.b.Len())}, fb.b.Raw())
	if err != nil {
		return err
	}
	fb.frames++
	fb.tuples += int64(fb.b.Len())
	fb.bytes += n
	fb.b.Reset()
	return nil
}

func (fb *frameBatcher) release() { fb.b.Release() }

// ServeWorker runs the worker half of the exchange protocol on conn: a loop
// of jobs, each a strictly phased conversation (open, divisor, filter,
// dividend, candidates/collect, quotient). It returns nil on a clean peer
// close between jobs and the terminal error otherwise; conn is closed either
// way, so a coordinator dying mid-job unwinds the worker promptly — the
// blocked read fails — with no goroutine left behind. Internal failures are
// reported to the peer with a best-effort frameError before returning.
func ServeWorker(conn net.Conn) error {
	defer conn.Close()
	fr := &frameReader{r: conn}
	for {
		h, payload, _, err := fr.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if h.Type != frameOpen {
			return fmt.Errorf("%w: expected open, got frame type %d", ErrCorruptFrame, h.Type)
		}
		j, err := decodeJobHeader(payload)
		if err != nil {
			return err
		}
		if err := runJob(conn, fr, j); err != nil {
			writeControlFrame(conn, FrameHeader{Type: frameError}, appendErrorPayload(nil, err)) //nolint:errcheck // already failing
			return err
		}
	}
}

// aliasBatch validates a batch frame's payload against the schema width and
// points b at it without copying.
func aliasBatch(b *exec.Batch, schema *tuple.Schema, h FrameHeader, payload []byte) error {
	if int64(h.Count)*int64(schema.Width()) != int64(len(payload)) {
		return fmt.Errorf("%w: %d tuples of width %d cannot fill %d payload bytes",
			ErrCorruptFrame, h.Count, schema.Width(), len(payload))
	}
	b.SetAlias(payload, int(h.Count))
	return nil
}

// runJob executes one division job: the worker's side of DESIGN.md §14's
// phase sequence. A positive job budget routes the local division through
// the recursive out-of-core operator instead of unbounded in-memory tables.
func runJob(conn net.Conn, fr *frameReader, j jobHeader) (err error) {
	defer exec.RecoverPanic(&err)
	ds := j.Dividend
	ss := j.Divisor
	qCols := ds.Complement(j.DivisorCols)
	if len(qCols) == 0 {
		return fmt.Errorf("%w: divisor columns cover the whole dividend", ErrCorruptFrame)
	}
	qs := ds.Project(qCols)
	if j.Budget > 0 {
		return runBudgetJob(conn, fr, j, qs)
	}

	// Phase: absorb the divisor into the local table, numbering distinct
	// tuples, and hash every one into the Babb filter when asked.
	divisorTable := hashtab.NewForExpected(ss, 256, j.HBS)
	var divisorCount int64
	var bv *bitmap.Bitmap
	if j.BitVector {
		if j.FilterBits <= 0 {
			return fmt.Errorf("%w: bit vector requested with %d bits", ErrCorruptFrame, j.FilterBits)
		}
		bv = bitmap.New(j.FilterBits)
	}
	recv := exec.NewBatch(ss, j.BatchSize)
divisor:
	for {
		h, payload, _, err := fr.next()
		if err != nil {
			recv.Release()
			return err
		}
		switch h.Type {
		case frameDivisorBatch:
			if err := aliasBatch(recv, ss, h, payload); err != nil {
				recv.Release()
				return err
			}
			for i, n := 0, recv.Len(); i < n; i++ {
				t := recv.Tuple(i)
				if e, created := divisorTable.GetOrInsert(t); created {
					divisorTable.SetNum(e, divisorCount)
					divisorCount++
					if bv != nil {
						bv.Set(int(tuple.HashBytes(t) % uint64(j.FilterBits)))
					}
				}
			}
		case frameDivisorEnd:
			break divisor
		case frameError:
			recv.Release()
			return errRemote(payload)
		default:
			recv.Release()
			return fmt.Errorf("%w: frame type %d during divisor phase", ErrCorruptFrame, h.Type)
		}
	}
	recv.Release()

	// Phase: ship the filter back so the coordinator can drop dividend
	// tuples before they are ever serialized — the semi-join reduction.
	if j.SendFilter {
		if bv == nil {
			return fmt.Errorf("%w: filter requested without a bit vector", ErrCorruptFrame)
		}
		if _, err := writeControlFrame(conn, FrameHeader{Type: frameFilter},
			appendFilter(nil, j.FilterBits, bv.Words())); err != nil {
			return err
		}
	}

	// Phase: absorb the dividend stream straight off the read buffer — each
	// frame's payload is aliased into a batch and run through the shared
	// hash-division kernel before the next read reuses the buffer.
	quotientTable := hashtab.NewForExpected(qs, 256, j.HBS)
	kern := division.NewAbsorber(ds, j.DivisorCols, qCols, divisorTable, quotientTable, divisorCount, false, nil)
	var st division.AbsorbStats
	recvD := exec.NewBatch(ds, j.BatchSize)
dividend:
	for {
		h, payload, _, err := fr.next()
		if err != nil {
			recvD.Release()
			return err
		}
		switch h.Type {
		case frameDividendBatch:
			if err := aliasBatch(recvD, ds, h, payload); err != nil {
				recvD.Release()
				return err
			}
			if err := kern.AbsorbBatch(recvD, &st); err != nil {
				recvD.Release()
				return err
			}
		case frameDividendEnd:
			break dividend
		case frameError:
			recvD.Release()
			return errRemote(payload)
		default:
			recvD.Release()
			return fmt.Errorf("%w: frame type %d during dividend phase", ErrCorruptFrame, h.Type)
		}
	}
	recvD.Release()

	if j.Strategy == strategyQuotient {
		return emitQuotient(conn, quotientTable, divisorCount, st.Dividend, j)
	}
	return runDivisorCollection(conn, fr, quotientTable, qs, divisorCount, st.Dividend, j)
}

// shipComplete ships every element of tab whose bit map has no zero bit —
// step 3 of hash-division, or a collection site's verdict — and flushes the
// trailing partial frame. A worker without divisor tuples discards its whole
// dividend, so its quotient table is empty and nothing ships.
func shipComplete(fb *frameBatcher, tab *hashtab.Table) error {
	err := tab.Iterate(func(e int) error {
		if tab.AllSet(e) {
			return fb.add(tab.Key(e))
		}
		return nil
	})
	if err != nil {
		return err
	}
	return fb.flush()
}

// emitQuotient scans the quotient table for complete candidates and ships
// them, closing the job with a stats-bearing quotientEnd. Used directly by
// quotient partitioning, where every worker's local result is final.
func emitQuotient(conn net.Conn, quotientTable *hashtab.Table, divisorCount, dividendTuples int64, j jobHeader) error {
	fb := newFrameBatcher(conn, quotientTable.Schema(), frameQuotientBatch, 0, j.BatchSize)
	defer fb.release()
	if err := shipComplete(fb, quotientTable); err != nil {
		return err
	}
	_, err := writeControlFrame(conn, FrameHeader{Type: frameQuotientEnd},
		appendWorkerStats(nil, dividendTuples, divisorCount, fb.tuples))
	return err
}

// runDivisorCollection is divisor partitioning's second distributed round.
// The worker first ships its local candidates (tuples complete against its
// divisor cluster, tagged with its phase index); the coordinator repartitions
// all candidates on the quotient attributes and ships them back as collect
// frames. This worker then acts as a collection site for its share: a
// candidate belongs to the quotient iff every active phase reported it —
// "divide the set of all incoming tuples over the set of processor network
// addresses" (§3.4), with the address set carried as per-frame phase tags.
func runDivisorCollection(conn net.Conn, fr *frameReader, quotientTable *hashtab.Table,
	qs *tuple.Schema, divisorCount, dividendTuples int64, j jobHeader) error {
	phase := uint16(0)
	if j.Phase >= 0 {
		phase = uint16(j.Phase)
	}
	fb := newFrameBatcher(conn, qs, frameCandidate, phase, j.BatchSize)
	defer fb.release()
	if err := shipComplete(fb, quotientTable); err != nil {
		return err
	}
	if _, err := writeControlFrame(conn, FrameHeader{Type: frameCandidateEnd}, nil); err != nil {
		return err
	}
	return collectAndEmit(conn, fr, qs, divisorCount, dividendTuples, j)
}

// collectAndEmit is the collection-site half of divisor partitioning's
// second round: absorb the coordinator's repartitioned, phase-tagged
// candidates and emit those reported by every active phase. Collection
// tables are deliberately outside any job budget — candidate sets are
// bounded by the quotient, not the dividend the budget exists to govern.
func collectAndEmit(conn net.Conn, fr *frameReader, qs *tuple.Schema, divisorCount, dividendTuples int64, j jobHeader) error {
	if j.NumPhases <= 0 {
		return fmt.Errorf("%w: divisor partitioning with %d phases", ErrCorruptFrame, j.NumPhases)
	}
	collection := hashtab.NewForExpected(qs, 256, j.HBS)
	collection.SetBitMaps(j.NumPhases)
	recv := exec.NewBatch(qs, j.BatchSize)
collect:
	for {
		h, payload, _, err := fr.next()
		if err != nil {
			recv.Release()
			return err
		}
		switch h.Type {
		case frameCollectBatch:
			if int(h.Phase) >= j.NumPhases {
				recv.Release()
				return fmt.Errorf("%w: collect phase %d of %d", ErrCorruptFrame, h.Phase, j.NumPhases)
			}
			if err := aliasBatch(recv, qs, h, payload); err != nil {
				recv.Release()
				return err
			}
			for i, n := 0, recv.Len(); i < n; i++ {
				e, _ := collection.GetOrInsert(recv.Tuple(i))
				collection.SetBit(e, int(h.Phase))
			}
		case frameCollectEnd:
			break collect
		case frameError:
			recv.Release()
			return errRemote(payload)
		default:
			recv.Release()
			return fmt.Errorf("%w: frame type %d during collect phase", ErrCorruptFrame, h.Type)
		}
	}
	recv.Release()

	out := newFrameBatcher(conn, qs, frameQuotientBatch, 0, j.BatchSize)
	defer out.release()
	if err := shipComplete(out, collection); err != nil {
		return err
	}
	_, err := writeControlFrame(conn, FrameHeader{Type: frameQuotientEnd},
		appendWorkerStats(nil, dividendTuples, divisorCount, out.tuples))
	return err
}

// drainJob reads and discards a budget job's input frames: the divisor, and
// the dividend unless the coordinator awaits a filter frame in between.
func drainJob(fr *frameReader, j jobHeader) error {
	ends := []byte{frameDivisorEnd, frameDividendEnd}
	if j.SendFilter {
		ends = ends[:1]
	}
	for _, end := range ends {
		for {
			h, payload, _, err := fr.next()
			if err != nil {
				return err
			}
			if h.Type == frameError {
				return errRemote(payload)
			}
			if h.Type == end {
				break
			}
		}
	}
	return nil
}

// spoolFrames absorbs one batch phase into a spill file, calling perTuple on
// every tuple, until the matching end frame arrives. The appender is closed
// on every exit so no buffered page outlives a failed phase.
func spoolFrames(fr *frameReader, file *storage.File, schema *tuple.Schema,
	batchType, endType byte, batchSize int, perTuple func(tuple.Tuple)) (int64, error) {
	recv := exec.NewBatch(schema, batchSize)
	defer recv.Release()
	ap := file.NewAppender()
	var count int64
	for {
		h, payload, _, err := fr.next()
		if err != nil {
			ap.Close()
			return count, err
		}
		switch h.Type {
		case batchType:
			if err := aliasBatch(recv, schema, h, payload); err != nil {
				ap.Close()
				return count, err
			}
			for i, n := 0, recv.Len(); i < n; i++ {
				t := recv.Tuple(i)
				if _, err := ap.Append(t); err != nil {
					ap.Close()
					return count, err
				}
				if perTuple != nil {
					perTuple(t)
				}
				count++
			}
		case endType:
			return count, ap.Close()
		case frameError:
			ap.Close()
			return count, errRemote(payload)
		default:
			ap.Close()
			return count, fmt.Errorf("%w: frame type %d while spooling type-%d frames",
				ErrCorruptFrame, h.Type, batchType)
		}
	}
}

// runBudgetJob is runJob under a memory grant (jobHeader.Budget): both input
// streams are spooled to spill files on a per-job temp device as they arrive,
// and the local division runs through division.DivideRecursive with the
// grant split by division.SplitGrant, as the server splits a session grant.
// A partition larger than the grant re-partitions recursively instead of
// growing the tables without bound; only past the recursion depth cap does
// the job fail, with the typed sentinel classified onto the wire for the
// coordinator.
func runBudgetJob(conn net.Conn, fr *frameReader, j jobHeader, qs *tuple.Schema) (err error) {
	obs.Default.Counter("net.worker.budget_jobs").Inc()
	ds := j.Dividend
	ss := j.Divisor

	poolBytes, tableBytes := division.SplitGrant(j.Budget)
	if tableBytes < 1 {
		// No table memory beside the pool floor: no cell can ever fit,
		// the outcome the depth cap reports. The job's input is drained
		// first, so the coordinator reads this error, not a reset link.
		if err := drainJob(fr, j); err != nil {
			return err
		}
		return fmt.Errorf("netexchange: grant of %d bytes leaves no table memory beside a %d-byte spill pool: %w",
			j.Budget, poolBytes, division.ErrPartitionDepth)
	}
	dev := disk.NewDevice(fmt.Sprintf("netexchange-w%d-temp", j.WorkerID), disk.PaperRunPageSize)
	pool := buffer.New(poolBytes)

	divisorFile := storage.NewSpillFile(pool, dev, ss, "divisor-in")
	dividendFile := storage.NewSpillFile(pool, dev, ds, "dividend-in")
	// The spooled inputs are dropped as soon as the division is done, before
	// any result frame goes out: once the coordinator has the last frame the
	// job must hold no spill file. The deferred call covers early exits.
	dropped := false
	dropInputs := func() error {
		if dropped {
			return nil
		}
		dropped = true
		return errors.Join(dividendFile.Drop(), divisorFile.Drop())
	}
	defer func() {
		if derr := dropInputs(); derr != nil && err == nil {
			err = derr
		}
	}()

	var bv *bitmap.Bitmap
	if j.BitVector {
		if j.FilterBits <= 0 {
			return fmt.Errorf("%w: bit vector requested with %d bits", ErrCorruptFrame, j.FilterBits)
		}
		bv = bitmap.New(j.FilterBits)
	}

	// The coordinator ships the divisor already distinct (collectDistinct),
	// so the spooled count is the distinct count the stats report.
	divisorCount, err := spoolFrames(fr, divisorFile, ss, frameDivisorBatch, frameDivisorEnd,
		j.BatchSize, func(t tuple.Tuple) {
			if bv != nil {
				bv.Set(int(tuple.HashBytes(t) % uint64(j.FilterBits)))
			}
		})
	if err != nil {
		return err
	}

	if j.SendFilter {
		if bv == nil {
			return fmt.Errorf("%w: filter requested without a bit vector", ErrCorruptFrame)
		}
		if _, err := writeControlFrame(conn, FrameHeader{Type: frameFilter},
			appendFilter(nil, j.FilterBits, bv.Words())); err != nil {
			return err
		}
	}

	dividendTuples, err := spoolFrames(fr, dividendFile, ds, frameDividendBatch, frameDividendEnd,
		j.BatchSize, nil)
	if err != nil {
		return err
	}

	var local []tuple.Tuple
	if divisorCount > 0 {
		sp := division.Spec{
			Dividend:    exec.NewTableScan(dividendFile, false),
			Divisor:     exec.NewTableScan(divisorFile, false),
			DivisorCols: j.DivisorCols,
		}
		env := division.Env{
			Pool:            pool,
			TempDev:         dev,
			MemoryBudget:    tableBytes,
			HBS:             j.HBS,
			BatchSize:       j.BatchSize,
			ExpectedDivisor: int(divisorCount),
		}
		var st division.RecursiveStats
		local, st, err = division.DivideRecursive(sp, env, division.QuotientPartitioning,
			division.HashDivisionOptions{MemoryBudget: tableBytes}, division.RecursiveOptions{})
		if err != nil {
			return err
		}
		obs.Default.Counter("net.worker.budget_spilled_partitions").Add(int64(st.SpilledPartitions))
		obs.Default.Counter("net.worker.budget_spill_bytes").Add(st.SpillBytes)
	}
	if err := dropInputs(); err != nil {
		return err
	}

	if j.Strategy == strategyQuotient {
		shipped, err := shipTuples(conn, qs, frameQuotientBatch, 0, j.BatchSize, local)
		if err != nil {
			return err
		}
		_, err = writeControlFrame(conn, FrameHeader{Type: frameQuotientEnd},
			appendWorkerStats(nil, dividendTuples, divisorCount, shipped))
		return err
	}

	// Divisor partitioning: the local quotient against this worker's
	// cluster is its candidate set; ship it phase-tagged and fall into the
	// unchanged collection round.
	phase := uint16(0)
	if j.Phase >= 0 {
		phase = uint16(j.Phase)
	}
	if _, err := shipTuples(conn, qs, frameCandidate, phase, j.BatchSize, local); err != nil {
		return err
	}
	if _, err := writeControlFrame(conn, FrameHeader{Type: frameCandidateEnd}, nil); err != nil {
		return err
	}
	return collectAndEmit(conn, fr, qs, divisorCount, dividendTuples, j)
}

// shipTuples write-combines a tuple slice into batch frames of the given
// type, releasing the arena on every exit.
func shipTuples(conn net.Conn, schema *tuple.Schema, typ byte, phase uint16,
	batchSize int, tuples []tuple.Tuple) (int64, error) {
	fb := newFrameBatcher(conn, schema, typ, phase, batchSize)
	defer fb.release()
	for _, t := range tuples {
		if err := fb.add(t); err != nil {
			return fb.tuples, err
		}
	}
	if err := fb.flush(); err != nil {
		return fb.tuples, err
	}
	return fb.tuples, nil
}
