package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// partWriter appends rows to one monthly partition as a sequence of
// block-sized gzip members — the one writer of new blocks, always v2.
// The pending block accumulates as column state built directly from
// the rows (colBuilder). A cut hands the block to a pooled gzip codec
// on the store's compression workers, and finished blocks are
// committed to the file strictly in cut order, so the partition bytes
// are identical to encoding and compressing each block inline (the
// builder and flate are pure functions of the member's input rows).
// Members start lazily on the first row after a cut, so flush/sync
// cycles never emit empty members.
type partWriter struct {
	mu      sync.Mutex
	closed  bool
	f       *os.File
	counter *countingWriter
	// base is the partition's size when this writer opened; block
	// offsets are base + compressed bytes written this session.
	base      int64
	blockSize int
	// idx is the month's block index; it covers every byte below base.
	idx *partIndex
	// s is the owning store — its metrics, its compression-concurrency
	// bound, and with month the accounting a commit adds its bytes to.
	s     *Store
	month string

	// Current (pending) block. col holds its column state and is
	// non-nil while a member is open; pendingBuf holds the same rows as
	// JSONL, which is what Sync journals. pendingSize tracks the block's
	// JSONL-equivalent size — Σ (len(line)+1) — so cut boundaries (and
	// therefore block contents, and therefore bytes) are those every
	// earlier writer of this package produced.
	pendingBuf  []byte
	col         *colBuilder
	pendingRows int
	pendingRaw  int64
	pendingSize int
	pendingShas map[string]int
	// jmark and jrows are the bytes of pendingBuf and the pending rows
	// that checkpoint.log already carries; a cut resets both.
	jmark, jrows int
	// queue holds cut blocks whose compression may still be running,
	// in cut order.
	queue []*pendingBlock
}

// pendingBlock is one cut block travelling through the compression
// pool. done is closed once comp and err are final.
type pendingBlock struct {
	col      *colBuilder // column state, sealed off-lock
	rows     int
	rawBytes int64
	shas     map[string]int
	// zone is the block's zone map, set by compressBlock before the
	// builder recycles. Final once done closes — commit always waits
	// on done before reading it.
	zone blockZone
	done chan struct{}
	comp *bytes.Buffer
	err  error
}

// maxInflightBlocks bounds cut-but-uncommitted blocks per partition;
// past it the writer waits for the oldest, keeping memory flat when
// encoding outruns compression.
const maxInflightBlocks = 4

// writeRowLocked appends one row — to the column builder and the JSONL
// buffer — cutting a block when the pending member reaches the
// block-size target. The cut fires on the row's JSONL-equivalent size.
// Caller holds w.mu.
func (w *partWriter) writeRowLocked(row encRow) error {
	if w.pendingBuf == nil {
		w.pendingBuf = bufpool.GetBlockBuf()
	}
	w.pendingBuf = append(w.pendingBuf, row.line...)
	w.pendingBuf = append(w.pendingBuf, '\n')
	if w.col == nil {
		w.col = getColBuilder()
	}
	w.col.addRow(row.scan, len(row.line))
	w.pendingRows++
	w.pendingRaw += int64(len(row.line))
	w.pendingSize += len(row.line) + 1
	w.pendingShas[row.sha]++
	if w.pendingSize >= w.blockSize {
		return w.cutBlockLocked()
	}
	return nil
}

// cutBlockLocked seals the pending block and hands it to the
// compression pool, then commits whatever earlier blocks have already
// finished. Caller holds w.mu. An empty pending block is a no-op.
func (w *partWriter) cutBlockLocked() error {
	if w.pendingRows == 0 {
		return nil
	}
	pb := &pendingBlock{
		col:      w.col,
		rows:     w.pendingRows,
		rawBytes: w.pendingRaw,
		shas:     w.pendingShas,
		done:     make(chan struct{}),
	}
	w.pendingBuf = w.pendingBuf[:0]
	w.col = nil
	w.pendingRows, w.pendingRaw, w.pendingSize = 0, 0, 0
	w.jmark, w.jrows = 0, 0
	w.pendingShas = bufpool.GetCountMap()
	w.queue = append(w.queue, pb)
	go compressBlock(pb, w.s.compressSem, w.s.m)
	return w.commitLocked(maxInflightBlocks)
}

// compressBlock seals and gzips one cut block off the writer lock. It
// touches only pb, the semaphore, and the (concurrency-safe) metrics,
// never w, so commits can proceed under w.mu while later blocks
// compress. Sealing is pure concatenation of already-encoded columns,
// so partition bytes stay independent of worker count and compression
// timing.
func compressBlock(pb *pendingBlock, sem chan struct{}, m *storeMetrics) {
	sem <- struct{}{}
	start := time.Now()
	sealed := pb.col.seal(bufpool.GetBlockBuf())
	m.blockEncodeSeconds.ObserveDuration(time.Since(start))
	start = time.Now()
	buf := bufpool.GetBuffer()
	zw := bufpool.GetGzipWriter(buf)
	_, werr := zw.Write(sealed)
	cerr := zw.Close()
	bufpool.PutGzipWriter(zw)
	m.blockCompressSeconds.ObserveDuration(time.Since(start))
	pb.zone = pb.col.zone()
	putColBuilder(pb.col)
	pb.col = nil
	bufpool.PutBlockBuf(sealed)
	pb.comp = buf
	pb.err = werr
	if pb.err == nil {
		pb.err = cerr
	}
	<-sem
	close(pb.done)
}

// commitLocked appends finished blocks to the partition file in cut
// order, stopping once at most maxLeft blocks remain queued (0 waits
// for everything — the durability points use that). Offsets are
// assigned here, where writes are serial, so they are exact. Caller
// holds w.mu.
func (w *partWriter) commitLocked(maxLeft int) error {
	for len(w.queue) > 0 {
		pb := w.queue[0]
		if len(w.queue) <= maxLeft {
			select {
			case <-pb.done:
			default:
				return nil // still compressing, nothing forces a wait
			}
		} else {
			<-pb.done
		}
		w.queue = w.queue[1:]
		if err := w.commitBlockLocked(pb); err != nil {
			w.abandonQueueLocked()
			return err
		}
	}
	return nil
}

func (w *partWriter) commitBlockLocked(pb *pendingBlock) error {
	defer bufpool.PutBuffer(pb.comp)
	if pb.err != nil {
		return fmt.Errorf("store: %w", pb.err)
	}
	start := w.base + w.counter.n
	if _, err := w.counter.Write(pb.comp.Bytes()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	end := w.base + w.counter.n
	w.s.m.blocksCut.Inc()
	w.s.m.storedBytes.Add(end - start)
	w.s.accountStored(w.month, end-start)
	bm := blockMeta{
		Offset: start,
		Len:    end - start,
		Rows:   pb.rows,
		Raw:    pb.rawBytes,
		Ver:    FormatV2,
	}
	bm.setZone(pb.zone)
	w.idx.appendBlock(bm, pb.shas)
	// appendBlock folds the posting counts into the index without
	// retaining the map, so the block's sha map recycles here — the
	// committed block no longer sits in the queue a view walks.
	bufpool.PutCountMap(pb.shas)
	pb.shas = nil
	return nil
}

// abandonQueueLocked drops the remaining queue after a commit error,
// recycling each block's buffers once its compressor finishes. The
// partition is no longer well-formed past the failed block, matching
// the pre-pool behavior of an inline write error.
func (w *partWriter) abandonQueueLocked() {
	rest := w.queue
	w.queue = nil
	go func() {
		for _, pb := range rest {
			<-pb.done
			if pb.comp != nil {
				bufpool.PutBuffer(pb.comp)
			}
			bufpool.PutCountMap(pb.shas)
			pb.shas = nil
		}
	}()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// encoded is one envelope marshaled outside the locks.
type encoded struct {
	month string
	sha   string
	meta  report.SampleMeta
	scan  *report.ScanReport
	line  []byte
	raw   int
}

// encRow is the unit handed to a partition writer: the compact line,
// its sample hash for the block posting list, and the scan itself so
// the writer can fold it straight into column state. The scan
// pointer is only dereferenced inside writeRowLocked, synchronously
// within the Put/PutBatch call that owns the envelope; only its
// (immutable) strings are retained past that, by the column
// dictionaries, until the block seals.
type encRow struct {
	sha  string
	line []byte
	scan *report.ScanReport
}

// encodeEnvelope builds the encoded form of one envelope. The row
// line is drawn from the shared buffer pool — callers release it with
// bufpool.PutBuf once the row is written. scratch is a reusable
// scratch buffer (sized by the raw-baseline encode, the only use of
// the full wire form here, so the envelope is serialized exactly
// once); the grown scratch is returned for the caller's next call.
func encodeEnvelope(env *report.Envelope, scratch []byte) (encoded, []byte, error) {
	if env.Meta.SHA256 == "" {
		return encoded{}, scratch, errors.New("store: envelope without sha256")
	}
	// Raw baseline: the full VT wire envelope.
	scratch = env.AppendJSON(scratch[:0])
	return encoded{
		month: MonthKey(env.Scan.AnalysisDate),
		sha:   env.Meta.SHA256,
		meta:  env.Meta,
		scan:  &env.Scan,
		line:  appendScanRow(bufpool.GetBuf(), &env.Scan),
		raw:   len(scratch),
	}, scratch, nil
}

// Put stores one envelope: the scan row goes to its month partition
// and the sample metadata snapshot is updated.
func (s *Store) Put(env report.Envelope) error {
	s.m.putCalls.Inc()
	scratch := bufpool.GetBuf()
	enc, scratch, err := encodeEnvelope(&env, scratch)
	bufpool.PutBuf(scratch)
	if err != nil {
		return err
	}
	err = s.writeRows(enc.month, []encRow{{sha: enc.sha, line: enc.line, scan: enc.scan}})
	bufpool.PutBuf(enc.line)
	if err != nil {
		return err
	}
	s.indexEncoded(enc)
	s.accountRows(enc.month, 1, int64(enc.raw))
	return nil
}

// PutBatch stores many envelopes, grouping partition writes so each
// month's writer lock is taken once per batch. Rows land in slice
// order, so a single-committer caller produces byte-identical
// partitions regardless of how the batch was assembled.
func (s *Store) PutBatch(envs []report.Envelope) error {
	s.m.putCalls.Inc()
	if len(envs) == 0 {
		return nil
	}
	encs := make([]encoded, len(envs))
	scratch := bufpool.GetBuf()
	releaseLines := func() {
		for i := range encs {
			bufpool.PutBuf(encs[i].line)
			encs[i].line = nil
		}
	}
	for i := range envs {
		enc, grown, err := encodeEnvelope(&envs[i], scratch)
		scratch = grown
		if err != nil {
			bufpool.PutBuf(scratch)
			releaseLines()
			return err
		}
		encs[i] = enc
	}
	bufpool.PutBuf(scratch)
	defer releaseLines()
	// Group rows by month preserving order.
	byMonth := make(map[string][]encRow)
	var months []string
	for _, enc := range encs {
		if _, ok := byMonth[enc.month]; !ok {
			months = append(months, enc.month)
		}
		byMonth[enc.month] = append(byMonth[enc.month], encRow{sha: enc.sha, line: enc.line, scan: enc.scan})
	}
	sort.Strings(months)
	for _, month := range months {
		if err := s.writeRows(month, byMonth[month]); err != nil {
			return err
		}
	}
	rawByMonth := make(map[string]struct {
		rows int
		raw  int64
	})
	for _, enc := range encs {
		s.indexEncoded(enc)
		acc := rawByMonth[enc.month]
		acc.rows++
		acc.raw += int64(enc.raw)
		rawByMonth[enc.month] = acc
	}
	for _, month := range months {
		acc := rawByMonth[month]
		s.accountRows(month, acc.rows, acc.raw)
	}
	return nil
}

// indexEncoded updates the sample index for one stored row and drops
// the sample's cached history — the next Get re-reads it.
func (s *Store) indexEncoded(enc encoded) {
	sh := s.shardFor(enc.sha)
	sh.mu.Lock()
	sh.samples[enc.sha] = enc.meta
	if s.tracking.Load() {
		sh.dirty[enc.sha] = struct{}{}
	} else if !sh.untracked {
		sh.untracked = true
	}
	set, ok := sh.months[enc.sha]
	if !ok {
		set = make(map[string]bool)
		sh.months[enc.sha] = set
	}
	set[enc.month] = true
	sh.mu.Unlock()
	s.cache.invalidate(enc.sha)
}

// accountRows folds rows into the month's Table 2 accounting.
func (s *Store) accountRows(month string, rows int, raw int64) {
	s.m.putRows.Add(int64(rows))
	s.m.rawBytes.Add(raw)
	s.smu.Lock()
	st, ok := s.stats[month]
	if !ok {
		st = &PartitionStats{}
		s.stats[month] = st
	}
	st.Reports += rows
	st.RawBytes += raw
	if s.tracking.Load() {
		s.dirtyMonths[month] = true
	}
	s.smu.Unlock()
}

// accountStored adds a committed block's bytes to the month's
// accounting — at the commit, so the live figure (and every snapshot
// of it) counts open writers' blocks too. A block can fill before the
// month's first accountRows, hence the create.
func (s *Store) accountStored(month string, n int64) {
	s.smu.Lock()
	st, ok := s.stats[month]
	if !ok {
		st = &PartitionStats{}
		s.stats[month] = st
	}
	st.StoredBytes += n
	s.smu.Unlock()
}

// writeRows appends rows to the month's partition under that
// partition's lock only. If a concurrent Flush closed the writer
// between lookup and write, it retries with a fresh writer.
func (s *Store) writeRows(month string, rows []encRow) error {
	for {
		w, err := s.writer(month)
		if err != nil {
			return err
		}
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			continue
		}
		for _, row := range rows {
			if err := w.writeRowLocked(row); err != nil {
				w.mu.Unlock()
				return err
			}
		}
		w.mu.Unlock()
		return nil
	}
}

func (s *Store) writer(month string) (*partWriter, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if w, ok := s.writers[month]; ok {
		return w, nil
	}
	path := s.partPath(month)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// Appending a new gzip member to an existing file is valid:
	// readers process multi-member streams transparently.
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	base := fi.Size()
	// Attach the month's block index. A fresh partition starts one; an
	// existing partition continues its index only if that index covers
	// every byte already on disk — otherwise new blocks would produce a
	// sidecar with holes, so bytes that arrived behind the index's back
	// are indexed first, by the same rebuild Open runs.
	ix := s.index(month)
	switch {
	case ix == nil && base == 0:
		ix = newPartIndex()
		s.setIndex(month, ix)
	case ix == nil || ix.fileSize != base:
		if ix, err = s.rebuildIndex(month); err != nil {
			f.Close()
			return nil, err
		}
	}
	w := s.newPartWriter(f, base, month, ix)
	s.writers[month] = w
	return w, nil
}

// newPartWriter starts a writer appending to f, which holds base bytes
// that ix covers.
func (s *Store) newPartWriter(f *os.File, base int64, month string, ix *partIndex) *partWriter {
	return &partWriter{
		f:           f,
		counter:     &countingWriter{w: f},
		base:        base,
		blockSize:   s.blockSize,
		idx:         ix,
		pendingShas: bufpool.GetCountMap(),
		s:           s,
		month:       month,
	}
}

// finishLocked seals and commits the pending block, closes the file,
// and returns the writer's pooled buffers: its last cut left a fresh
// (empty) pending-sha map and the emptied line buffer, which would
// otherwise leak out of their pools. Caller holds w.mu.
func (w *partWriter) finishLocked() error {
	if err := w.cutBlockLocked(); err != nil {
		return err
	}
	if err := w.commitLocked(0); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	bufpool.PutCountMap(w.pendingShas)
	w.pendingShas = nil
	bufpool.PutBlockBuf(w.pendingBuf)
	w.pendingBuf = nil
	return nil
}

// Flush finalizes all open partition writers so data is durable and
// readable, and persists grown index sidecars; subsequent Puts open
// fresh gzip members.
func (s *Store) Flush() error {
	// Writers are closed while wmu is held: a successor writer for the
	// same month can only be created once the old writer's bytes are
	// fully on disk, so the successor's Stat-derived base — and every
	// block offset it records — is exact. (Detaching first and closing
	// outside wmu would let a concurrent Put open a writer whose base
	// excludes the detached writer's still-pending member.)
	s.wmu.Lock()
	defer s.wmu.Unlock()
	for month, w := range s.writers {
		w.mu.Lock()
		w.closed = true
		err := w.finishLocked()
		w.mu.Unlock()
		if err != nil {
			return err
		}
		delete(s.writers, month)
	}
	return s.writeSidecars()
}
