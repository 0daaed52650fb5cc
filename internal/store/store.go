// Package store is the embedded report store standing in for the
// paper's MongoDB deployment. It follows the paper's data-engineering
// choices (§4.1):
//
//   - sample basic information and scan results are stored separately
//     to remove redundancy (metadata is kept once per sample, scan
//     rows carry only per-scan fields);
//   - only relevant fields are stored, in a compact row encoding;
//   - rows are gzip-compressed;
//   - data is partitioned by month (Table 2 reports per-month counts
//     and sizes).
//
// The store tracks raw-vs-stored byte accounting so the compression
// ratio the paper reports (10.06×) can be measured on our data.
//
// Layout under the store directory:
//
//	scans-2021-05.jsonl.gz   one multi-member gzip file per month,
//	                         written as ~256 KiB block members
//	scans-2021-05.idx        sidecar block index (see index.go)
//	samples.jsonl.gz         latest metadata snapshot, written on Close
//	stats.json               exact per-month accounting, written on Close
//	checkpoint.log           checkpoint journal (journal.go): present
//	                         only between a Sync and the next Close
//
// Partition bytes remain a valid (multi-member) gzip stream, readable
// by zcat and by pre-index builds of this package; the sidecar is a
// cache of what those bytes say. Open rebuilds the in-memory index of
// any month whose sidecar is missing, stale, torn, or pre-zone, and
// the next Flush/Sync/Close persists it — so every month has one
// shape, a complete block index, for as long as the store is open.
//
// Concurrency model: the sample index (metadata + month membership)
// is hash-sharded with one mutex per shard, so concurrent Puts on
// different samples never contend on the index. Each monthly
// partition has its own writer with its own lock, so ingest into
// different months proceeds in parallel and the gzip compression for
// one month never blocks another. Row encoding (the expensive JSON
// work) happens outside every lock. PutBatch amortizes the partition
// lock over a whole feed slice.
//
// Read path: Get consults each month's block index and decodes only
// the members holding its sample (concurrently across months);
// decoded histories are served from an LRU cache with singleflight
// decode deduplication. Every caller gets a private History and Reports
// slice over shared, immutable *ScanReport elements (see Get).
// Full-store passes (Scan, IterAll, Verify) plan per-block jobs from
// the indexes and fan them across one worker pool.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

// ErrUnknownSample is returned by Get for hashes never stored.
var ErrUnknownSample = errors.New("store: unknown sample")

// storeMetrics caches the store's series so the ingest and read hot
// paths never touch the registry map. The cache counters satisfy
// store_cache_hits_total + store_cache_misses_total ==
// store_gets_total — checked by the invariant suite.
type storeMetrics struct {
	putCalls    *obs.Counter
	putRows     *obs.Counter
	rawBytes    *obs.Counter
	storedBytes *obs.Counter
	blocksCut   *obs.Counter

	// Block pipeline split: payload sealing vs gzip time, so "where
	// does a cut's latency go" is visible in /metricsz. Each cut block
	// is observed once in each (invariant suite).
	blockEncodeSeconds   *obs.Histogram
	blockCompressSeconds *obs.Histogram

	gets           *obs.Counter
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	dedup          *obs.Counter
	indexedMonths  *obs.Counter
	blockDecodes   *obs.Counter
	// indexRebuilds counts month indexes rebuilt from partition bytes:
	// at Open for each sidecar it could not trust (0 after a clean
	// shutdown), by a writer that finds bytes its index does not
	// cover, and by Reindex.
	indexRebuilds *obs.Counter

	// Checkpoint journal (journal.go). Sync cuts nothing, so
	// store_blocks_cut_total of a Sync-per-poll campaign equals the
	// uncheckpointed campaign's; and after a reopen, replayed rows plus
	// the rows in sealed blocks equal TotalStats().Reports — both
	// checked by the invariant suite.
	syncSeconds     *obs.Histogram
	journalRecords  *obs.Counter
	journalBytes    *obs.Counter
	journalFolds    *obs.Counter
	journalReplayed *obs.Counter
	journalTorn     *obs.Counter

	// Pushdown scan accounting (scan.go): every block a Scan considers
	// is pruned for exactly one reason or scanned, so
	// store_blocks_pruned_total summed over reasons +
	// store_scan_blocks_scanned_total == store_scan_blocks_total —
	// checked by the invariant suite.
	scanCalls   *obs.Counter
	scanBlocks  *obs.Counter
	scanScanned *obs.Counter
	scanRows    *obs.Counter
	colsSkipped *obs.Counter
	pruned      map[string]*obs.Counter
}

func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	pruned := make(map[string]*obs.Counter, len(pruneReasons))
	for _, reason := range pruneReasons {
		pruned[reason] = reg.Counter("store_blocks_pruned_total", "reason", reason)
	}
	return &storeMetrics{
		putCalls:    reg.Counter("store_put_calls_total"),
		putRows:     reg.Counter("store_put_rows_total"),
		rawBytes:    reg.Counter("store_raw_bytes_total"),
		storedBytes: reg.Counter("store_stored_bytes_total"),
		blocksCut:   reg.Counter("store_blocks_cut_total"),

		blockEncodeSeconds:   reg.Histogram("store_block_encode_seconds", obs.DefBuckets),
		blockCompressSeconds: reg.Histogram("store_block_compress_seconds", obs.DefBuckets),

		gets:           reg.Counter("store_gets_total"),
		cacheHits:      reg.Counter("store_cache_hits_total"),
		cacheMisses:    reg.Counter("store_cache_misses_total"),
		cacheEvictions: reg.Counter("store_cache_evictions_total"),
		dedup:          reg.Counter("store_singleflight_dedup_total"),
		indexedMonths:  reg.Counter("store_get_indexed_months_total"),
		blockDecodes:   reg.Counter("store_block_decodes_total"),
		indexRebuilds:  reg.Counter("store_index_rebuilds_total"),

		syncSeconds:     reg.Histogram("store_sync_seconds", obs.DefBuckets),
		journalRecords:  reg.Counter("store_journal_records_total"),
		journalBytes:    reg.Counter("store_journal_bytes_total"),
		journalFolds:    reg.Counter("store_journal_folds_total"),
		journalReplayed: reg.Counter("store_journal_replayed_rows_total"),
		journalTorn:     reg.Counter("store_journal_torn_tail_total"),

		scanCalls:   reg.Counter("store_scan_calls_total"),
		scanBlocks:  reg.Counter("store_scan_blocks_total"),
		scanScanned: reg.Counter("store_scan_blocks_scanned_total"),
		scanRows:    reg.Counter("store_scan_rows_total"),
		colsSkipped: reg.Counter("store_columns_skipped_total"),
		pruned:      pruned,
	}
}

// indexShards is the sample-index shard count (power of two).
const indexShards = 32

// Store is an embedded, compressed, monthly-partitioned report store.
// It is safe for concurrent use; see the package comment for the
// locking scheme.
type Store struct {
	dir string

	// reg receives the store's instrumentation; m caches its series.
	reg *obs.Registry
	m   *storeMetrics

	// blockSize is the target uncompressed bytes per gzip block.
	blockSize int
	// maxFormat is the newest block format this store reads; formatMax
	// except in tests that simulate an older build. New blocks are
	// always FormatV2.
	maxFormat int
	// cacheSize is the history-cache capacity in entries (0 disables).
	cacheSize int
	// cache is the LRU + singleflight history cache (nil if disabled).
	cache *historyCache

	// shards hold the per-sample metadata and month-membership index.
	shards [indexShards]indexShard

	// wmu guards the writers map (creation/detach); individual writes
	// lock only the month's writer.
	wmu     sync.Mutex
	writers map[string]*partWriter

	// imu guards the indexes map; each partIndex has its own lock.
	imu     sync.Mutex
	indexes map[string]*partIndex

	// smu guards the per-month accounting and dirtyMonths, the months
	// whose accounting moved since the last journal record (recorded
	// only while tracking is set).
	smu         sync.Mutex
	stats       map[string]*PartitionStats
	dirtyMonths map[string]bool

	// tracking: the session checkpoints — Open found a journal, or Sync
	// has been called — so Puts record the samples and months they
	// dirty. A store that never calls Sync never sets it and keeps no
	// such record. Atomic because Put reads it.
	tracking atomic.Bool

	// Checkpoint journal state (journal.go). jmu serializes Sync, the
	// fold and Close's journal teardown, and guards the fields below.
	jmu sync.Mutex
	// journaled: checkpoint.log exists, so Close must fold it away.
	journaled bool
	// jf is the journal open for appending (nil until this session's
	// first record); jsize is the length of its valid prefix.
	jf    *os.File
	jsize int64
	// jbuf is the record encode buffer, reused across checkpoints.
	jbuf []byte
	// jstale: a journal appended to now would not describe the store —
	// rows were Put before tracking began, so no record of what they
	// dirtied exists, or an append failed and the file's tail is
	// unknown. The next Sync or Close folds, which rewrites snapshots
	// and journal from live state.
	jstale bool
	// foldAt is the journal size past which Sync folds.
	foldAt int64
	// foldStep, when set (tests only), is called after each step of a
	// fold, a snapshot write and a migration; an error stops the
	// operation there.
	foldStep func(step string) error

	// compressSem bounds concurrent block compression across all
	// partition writers.
	compressSem chan struct{}
}

// Option tunes a Store at Open time.
type Option func(*Store)

// WithBlockSize sets the target uncompressed size of one partition
// block (gzip member). Smaller blocks make Get decode less per hit at
// a slight compression-ratio cost. Values <= 0 keep the default.
func WithBlockSize(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.blockSize = n
		}
	}
}

// WithCacheSize bounds the decoded-history read cache in entries;
// 0 disables caching entirely (every Get decodes from disk).
func WithCacheSize(n int) Option {
	return func(s *Store) { s.cacheSize = n }
}

// withMaxFormat caps the formats this store will read — the test hook
// that simulates a v1-era build opening data from the future, pinning
// the typed-rejection half of the compatibility matrix. It caps reads
// only: a build writes the newest format it reads.
func withMaxFormat(v int) Option {
	return func(s *Store) { s.maxFormat = v }
}

// WithMetrics routes the store's instrumentation (puts, bytes raw and
// compressed, cache hits/misses/evictions, singleflight dedups,
// indexed reads, block decodes, index rebuilds) into reg instead of
// the process-wide default registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Store) { s.reg = reg }
}

// index returns the month's block index, or nil when the store holds
// no partition for the month (yet).
func (s *Store) index(month string) *partIndex {
	s.imu.Lock()
	defer s.imu.Unlock()
	return s.indexes[month]
}

func (s *Store) setIndex(month string, ix *partIndex) {
	s.imu.Lock()
	s.indexes[month] = ix
	s.imu.Unlock()
}

// monthIndex pairs a partition key with its block index.
type monthIndex struct {
	month string
	ix    *partIndex
}

// monthIndexes snapshots the month→index map in month order; a
// non-empty only restricts it to that month. Every partition on disk
// is in the map, so this — not the accounting's month list, which a
// replicated stats snapshot can run ahead of — is what full-store
// passes iterate.
func (s *Store) monthIndexes(only string) []monthIndex {
	s.imu.Lock()
	out := make([]monthIndex, 0, len(s.indexes))
	for month, ix := range s.indexes {
		if only == "" || only == month {
			out = append(out, monthIndex{month, ix})
		}
	}
	s.imu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].month < out[j].month })
	return out
}

// rebuildIndex re-derives a month's block index from its partition
// bytes and installs it dirty, so the next Flush/Sync/Close persists a
// fresh sidecar. It is strict: bytes that do not decode to whole
// members are an error, never a truncation (that is RepairDir's job).
func (s *Store) rebuildIndex(month string) (*partIndex, error) {
	ix, _, torn, err := indexPartition(s.partPath(month), s.maxFormat)
	if err == nil {
		err = torn
	}
	if err != nil {
		return nil, err
	}
	ix.dirty = true
	s.setIndex(month, ix)
	s.m.indexRebuilds.Inc()
	return ix, nil
}

// partPath names a month's partition file.
func (s *Store) partPath(month string) string {
	return filepath.Join(s.dir, "scans-"+month+".jsonl.gz")
}

type indexShard struct {
	mu      sync.Mutex
	samples map[string]report.SampleMeta
	// months maps sample hash -> partition keys that contain its rows.
	months map[string]map[string]bool
	// dirty holds the samples Put since the last journal record, kept
	// only while the store is tracking; untracked notes that a sample
	// was Put before that, which makes the session's first Sync a fold.
	dirty     map[string]struct{}
	untracked bool
}

func (s *Store) shardFor(sha string) *indexShard {
	return &s.shards[fnv32a(sha)&(indexShards-1)]
}

// fnv32a hashes a sample hash onto its index shard.
func fnv32a(s string) uint32 {
	const offset = 2166136261
	const prime = 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// PartitionStats is the per-month accounting of Table 2.
type PartitionStats struct {
	// Reports is the number of scan rows in the partition.
	Reports int
	// RawBytes is the size the rows would occupy as uncompressed
	// full VT-wire envelopes (the naive storage baseline).
	RawBytes int64
	// StoredBytes is the compressed on-disk size of the rows.
	StoredBytes int64
}

// CompressionRatio returns RawBytes / StoredBytes (0 if nothing
// stored).
func (p PartitionStats) CompressionRatio() float64 {
	if p.StoredBytes == 0 {
		return 0
	}
	return float64(p.RawBytes) / float64(p.StoredBytes)
}

// scanRow is the compact on-disk encoding of one scan.
type scanRow struct {
	SHA  string   `json:"s"`
	FT   string   `json:"f"`
	At   int64    `json:"t"`
	Rank int      `json:"p"`
	Tot  int      `json:"n"`
	Res  []rowRes `json:"r"`
}

type rowRes struct {
	E string `json:"e"`
	V int8   `json:"v"`
	S int    `json:"s"`
	L string `json:"l,omitempty"`
}

// validUTF8 normalizes a string to valid UTF-8 so the row encoding
// round-trips: encoding/json silently replaces invalid bytes with
// U+FFFD on marshal, so storing the replacement form up front keeps
// what Get returns identical to what the partition holds. (Engine
// label strings are arbitrary engine output, so this does happen.)
func validUTF8(s string) string { return strings.ToValidUTF8(s, "�") }

// rowFromScan builds the compact on-disk encoding of one scan. All
// strings are normalized to valid UTF-8 and the timestamp goes
// through the same zero-preserving unix encoding as metadata rows, so
// rowToReport(rowFromScan(r)) reproduces r exactly (fuzzed by
// FuzzStoreRowRoundTrip).
func rowFromScan(scan *report.ScanReport) scanRow {
	row := scanRow{
		SHA:  validUTF8(scan.SHA256),
		FT:   validUTF8(scan.FileType),
		At:   unix(scan.AnalysisDate),
		Rank: scan.AVRank,
		Tot:  scan.EnginesTotal,
		Res:  make([]rowRes, len(scan.Results)),
	}
	for i, er := range scan.Results {
		row.Res[i] = rowRes{E: validUTF8(er.Engine), V: int8(er.Verdict), S: er.SignatureVersion, L: validUTF8(er.Label)}
	}
	return row
}

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
	// committed block no longer sits in the queue pendingSHALocked
	// walks.
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

// pendingSHALocked reports whether sha has rows not yet readable on
// disk: in the accumulating block or in a cut block still queued.
func (w *partWriter) pendingSHALocked(sha string) bool {
	if w.pendingShas[sha] > 0 {
		return true
	}
	for _, pb := range w.queue {
		if pb.shas[sha] > 0 {
			return true
		}
	}
	return false
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

// Open opens (or creates) a store in dir, loading any existing
// partitions into the index and replaying the checkpoint journal a
// killed session left behind (journal.go), so the store comes back as
// of that session's last completed Sync.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:         dir,
		blockSize:   blockSizeDefault,
		cacheSize:   cacheSizeDefault,
		maxFormat:   formatMax,
		writers:     make(map[string]*partWriter),
		indexes:     make(map[string]*partIndex),
		stats:       make(map[string]*PartitionStats),
		dirtyMonths: make(map[string]bool),
		compressSem: make(chan struct{}, max(2, runtime.GOMAXPROCS(0))),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.reg == nil {
		s.reg = obs.Default()
	}
	s.m = newStoreMetrics(s.reg)
	s.cache = newHistoryCache(s.cacheSize)
	if s.cache != nil {
		s.cache.m = cacheMetrics{
			hits:      s.m.cacheHits,
			misses:    s.m.cacheMisses,
			evictions: s.m.cacheEvictions,
			dedup:     s.m.dedup,
		}
	}
	for i := range s.shards {
		s.shards[i].samples = make(map[string]report.SampleMeta)
		s.shards[i].months = make(map[string]map[string]bool)
		s.shards[i].dirty = make(map[string]struct{})
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	return s, nil
}

// load rebuilds the in-memory index from existing partition files.
// Months with a valid sidecar load from it directly (no decompression
// at all); the rest — sidecar missing, stale, torn, or pre-zone — are
// re-indexed from their gzip members, which costs one pass over the
// month and is made good on disk by the next Flush/Sync/Close. Either
// way the month ends up with a complete block index. A partition with
// a torn tail is an error here; only RepairDir truncates.
// load runs before the store is shared, so it takes no locks.
func (s *Store) load() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "scans-") || !strings.HasSuffix(name, ".jsonl.gz") {
			continue
		}
		month := strings.TrimSuffix(strings.TrimPrefix(name, "scans-"), ".jsonl.gz")
		st := &PartitionStats{}
		path := filepath.Join(s.dir, name)
		var size int64
		if fi, err := os.Stat(path); err == nil {
			size = fi.Size()
		}
		ix, ok, err := loadSidecar(s.dir, month, size, s.maxFormat)
		if err != nil {
			return err
		}
		if ok {
			s.indexes[month] = ix
		} else if ix, err = s.rebuildIndex(month); err != nil {
			return err
		}
		st.Reports, st.RawBytes = ix.totals()
		for _, sha := range ix.sampleSHAs() {
			s.addMonth(sha, month)
		}
		st.StoredBytes = size
		s.stats[month] = st
	}
	// Load the metadata snapshot if present.
	metaPath := filepath.Join(s.dir, "samples.jsonl.gz")
	f, err := os.Open(metaPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	gz, err := bufpool.GetGzipReader(f)
	if err != nil {
		return fmt.Errorf("store: samples snapshot: %w", err)
	}
	defer bufpool.PutGzipReader(gz)
	defer gz.Close()
	dec := json.NewDecoder(gz)
	for {
		var m struct {
			Meta metaRow `json:"m"`
		}
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("store: samples snapshot: %w", err)
		}
		s.shardFor(m.Meta.SHA).samples[m.Meta.SHA] = m.Meta.toMeta()
	}
	return s.loadStatsSidecar()
}

// addMonth records that month's partition holds rows of sha. Open-time
// only: it takes no shard lock.
func (s *Store) addMonth(sha, month string) {
	sh := s.shardFor(sha)
	set, ok := sh.months[sha]
	if !ok {
		set = make(map[string]bool)
		sh.months[sha] = set
	}
	set[month] = true
}

// loadStatsSidecar restores the exact raw-byte accounting persisted
// by Close. Without it, load() has already filled RawBytes with the
// compact-line lengths as a conservative approximation. StoredBytes of
// a partition on disk stays what load() measured: the file may have
// grown since the snapshot was written.
func (s *Store) loadStatsSidecar() error {
	b, err := os.ReadFile(filepath.Join(s.dir, "stats.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	var saved map[string]PartitionStats
	if err := json.Unmarshal(b, &saved); err != nil {
		return fmt.Errorf("store: stats sidecar: %w", err)
	}
	for month, st := range saved {
		cp := st
		if measured := s.stats[month]; measured != nil {
			cp.StoredBytes = measured.StoredBytes
		}
		s.stats[month] = &cp
	}
	return nil
}

// metaRow is the compact metadata encoding.
type metaRow struct {
	SHA   string `json:"s"`
	FT    string `json:"f"`
	Size  int64  `json:"z"`
	First int64  `json:"a"`
	LastA int64  `json:"b"`
	LastS int64  `json:"c"`
	TS    int    `json:"n"`
}

func (m metaRow) toMeta() report.SampleMeta {
	return report.SampleMeta{
		SHA256:              m.SHA,
		FileType:            m.FT,
		Size:                m.Size,
		FirstSubmissionDate: fromUnix(m.First),
		LastAnalysisDate:    fromUnix(m.LastA),
		LastSubmissionDate:  fromUnix(m.LastS),
		TimesSubmitted:      m.TS,
	}
}

func metaFrom(meta report.SampleMeta) metaRow {
	return metaRow{
		SHA:   validUTF8(meta.SHA256),
		FT:    validUTF8(meta.FileType),
		Size:  meta.Size,
		First: unix(meta.FirstSubmissionDate),
		LastA: unix(meta.LastAnalysisDate),
		LastS: unix(meta.LastSubmissionDate),
		TS:    meta.TimesSubmitted,
	}
}

func unix(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

func fromUnix(s int64) time.Time {
	if s == 0 {
		return time.Time{}
	}
	return time.Unix(s, 0).UTC()
}

// MonthKey formats the partition key for an instant.
func MonthKey(t time.Time) string { return t.UTC().Format("2006-01") }

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

// Sync is the durability point resumable collectors use before saving
// a checkpoint: it appends one record to the checkpoint journal — the
// rows put since the previous record that no sealed block holds, the
// metas that changed, the accounting that moved (journal.go) — and
// fsyncs it, plus any partition in which a block sealed since its last
// fsync. It cuts no block and rewrites a sidecar only when one did
// seal, so its cost follows what changed, not what is stored. After a
// kill, Open recovers the complete store state (rows, indexes, sample
// metas, accounting) as of the last Sync that returned, so a resumed
// campaign passes full verification.
//
// Sync does not publish. Rows stay readable through Get (whose
// read-your-writes cut seals them) and through Scan and IterAll (which
// flush first), but the sealed blocks that replication lists
// (ReplState, BlocksSince) gain them only when their block fills or at
// the next Flush. Flush — which leaves the store open for further Puts
// — is therefore the call that makes everything put so far visible to
// a replication Leader serving this store.
//
// What moved is recorded only from a session's first Sync on (a store
// that never checkpoints pays nothing for the journal), so if rows were
// Put before it, that first Sync is a fold: it writes the snapshots
// once and starts the journal beside them.
func (s *Store) Sync() error {
	start := time.Now()
	defer func() { s.m.syncSeconds.ObserveDuration(time.Since(start)) }()
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if !s.tracking.Swap(true) && s.takeUntracked() {
		s.jstale = true
	}
	if !s.jstale {
		if err := s.journalCheckpoint(); err != nil {
			s.jstale = true
			return err
		}
	}
	if err := s.writeSidecars(); err != nil {
		return err
	}
	if s.jstale || (s.jf != nil && s.jsize > s.foldAt) {
		return s.fold(false)
	}
	return nil
}

// writeSidecars persists every index its sidecar is behind — grown by
// a block, rebuilt at Open, or left dirty by a failed earlier write.
func (s *Store) writeSidecars() error {
	for _, mi := range s.monthIndexes("") {
		if err := mi.ix.writeSidecar(s.dir, mi.month); err != nil {
			return err
		}
	}
	return nil
}

// cutPendingFor makes the month's buffered rows readable if any of
// them belong to sha — Get's read-your-writes guarantee. Cutting only
// when the sample is actually pending avoids member churn under
// read-heavy load.
func (s *Store) cutPendingFor(month, sha string) error {
	s.wmu.Lock()
	w := s.writers[month]
	s.wmu.Unlock()
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// A writer closed by a concurrent Flush already has its rows on
	// disk; nothing left to cut.
	if w.closed || !w.pendingSHALocked(sha) {
		return nil
	}
	if err := w.cutBlockLocked(); err != nil {
		return err
	}
	return w.commitLocked(0)
}

// Close flushes partitions and writes the metadata snapshots. A store
// with a journal first journals what moved since its last Sync, so
// that a crash inside Close replays to exactly the closing state, and
// then folds the journal away; one that never called Sync does neither.
func (s *Store) Close() error {
	if err := s.Flush(); err != nil {
		return err
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if !s.journaled && !s.jstale {
		return s.writeSnapshots(false)
	}
	if !s.jstale {
		if err := s.journalCheckpoint(); err != nil {
			return err
		}
	}
	return s.fold(true)
}

// writeSnapshots persists the sample-metadata and stats snapshots,
// each written to a temp file and renamed into place so a crash
// mid-write never clobbers the previous good snapshot; durable fsyncs
// each before its rename, which a fold needs before it may drop the
// journal records the snapshots replace. Both files go through the
// same encoders the replication leader serves (WriteSamplesSnapshot,
// StatsJSON), so a follower that applied the leader's snapshots and
// then Closes rewrites identical bytes. The samples snapshot is
// O(total samples), which is why only Close and a fold write it.
func (s *Store) writeSnapshots(durable bool) error {
	path := filepath.Join(s.dir, "samples.jsonl.gz")
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.WriteSamplesSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.step("samples"); err != nil {
		return err
	}
	// Persist the exact accounting for reloads.
	b, err := s.StatsJSON()
	if err != nil {
		return err
	}
	if err := atomicWriteFile(filepath.Join(s.dir, "stats.json"), b, durable); err != nil {
		return err
	}
	return s.step("stats")
}

// snapshotSamples copies the whole sample index out of the shards.
func (s *Store) snapshotSamples() map[string]report.SampleMeta {
	out := make(map[string]report.SampleMeta)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h, m := range sh.samples {
			out[h] = m
		}
		sh.mu.Unlock()
	}
	return out
}

// Get returns the sample's full history, read by seeking straight to
// the few blocks of each month that hold the sample (months are
// scanned concurrently). Rows still sitting in a write buffer are cut
// to disk first, so a Get after Put always sees the written rows.
//
// Results are served through the history cache when enabled. The
// returned History and its Reports slice are the caller's (reorder,
// truncate, or replace entries freely), but the *ScanReport elements
// are shared with the cache and other callers and MUST be treated as
// immutable — call (*ScanReport).Clone before mutating one. Sharing
// makes cache hits allocation-flat instead of deep-copying every
// report per caller.
func (s *Store) Get(sha string) (*report.History, error) {
	s.m.gets.Inc()
	if s.cache == nil {
		// No cache: every Get is a miss so the hits+misses==gets
		// identity holds regardless of configuration.
		s.m.cacheMisses.Inc()
		return s.getUncached(sha)
	}
	return s.cache.get(sha, s.getUncached)
}

// getUncached assembles a history from disk.
func (s *Store) getUncached(sha string) (*report.History, error) {
	sh := s.shardFor(sha)
	sh.mu.Lock()
	meta, ok := sh.samples[sha]
	if !ok {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSample, sha)
	}
	monthSet := sh.months[sha]
	months := make([]string, 0, len(monthSet))
	for m := range monthSet {
		months = append(months, m)
	}
	sh.mu.Unlock()
	sort.Strings(months)

	// Read-your-writes: rows of this sample buffered in an open gzip
	// member are not yet readable — cut them to disk first.
	for _, month := range months {
		if err := s.cutPendingFor(month, sha); err != nil {
			return nil, err
		}
	}

	// Scan the sample's months concurrently, assembling results in
	// month order so the pre-sort report order is deterministic.
	perMonth := make([][]*report.ScanReport, len(months))
	if len(months) == 1 {
		rows, err := s.readMonthRows(months[0], sha)
		if err != nil {
			return nil, err
		}
		perMonth[0] = rows
	} else {
		var wg sync.WaitGroup
		errs := make([]error, len(months))
		for i, month := range months {
			wg.Add(1)
			go func(i int, month string) {
				defer wg.Done()
				perMonth[i], errs[i] = s.readMonthRows(month, sha)
			}(i, month)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	h := &report.History{Meta: meta}
	for _, rows := range perMonth {
		h.Reports = append(h.Reports, rows...)
	}
	// Stable sort: reports with equal timestamps keep their storage
	// order (months ascending, file order within a month), so repeated
	// Gets — and Gets against stores built at different worker counts,
	// which are byte-identical — always return the identical sequence.
	sort.SliceStable(h.Reports, func(i, j int) bool {
		return h.Reports[i].AnalysisDate.Before(h.Reports[j].AnalysisDate)
	})
	return h, nil
}

// readMonthRows returns the sample's rows from one month by decoding
// only the blocks the month's posting list names.
func (s *Store) readMonthRows(month, sha string) ([]*report.ScanReport, error) {
	s.m.indexedMonths.Inc()
	blocks := s.index(month).blocksFor(sha)
	if len(blocks) == 0 {
		return nil, nil
	}
	s.m.blockDecodes.Add(int64(len(blocks)))
	path := s.partPath(month)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	var out []*report.ScanReport
	var row scanRow
	for _, bm := range blocks {
		switch ver := blockVer(bm); {
		case ver == FormatV1:
			if err := scanBlockLinesAt(f, path, bm, func(line []byte) error {
				// A block holds many samples; skip full decodes for
				// other samples' rows by peeking at the leading "s" key
				// (always first in canonical encoder output).
				if got, ok := rowSHA(line); ok && string(got) != sha {
					return nil
				}
				if err := decodeScanRow(line, &row); err != nil {
					return err
				}
				if row.SHA == sha {
					out = append(out, rowToReport(row))
				}
				return nil
			}); err != nil {
				return nil, err
			}
		case ver <= s.maxFormat:
			payload, err := readBlockPayloadAt(f, path, bm)
			if err != nil {
				return nil, err
			}
			rows, err := columnarRowsFor(payload, sha)
			bufpool.PutBlockBuf(payload)
			if err != nil {
				return nil, fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
			}
			out = append(out, rows...)
		default:
			return nil, &FormatError{Path: path, Version: ver, Max: s.maxFormat}
		}
	}
	return out, nil
}

func rowToReport(row scanRow) *report.ScanReport {
	r := &report.ScanReport{
		SHA256:       row.SHA,
		FileType:     row.FT,
		AnalysisDate: fromUnix(row.At),
		AVRank:       row.Rank,
		EnginesTotal: row.Tot,
		Results:      make([]report.EngineResult, len(row.Res)),
	}
	for i, rr := range row.Res {
		r.Results[i] = report.EngineResult{
			Engine:           rr.E,
			Verdict:          report.Verdict(rr.V),
			SignatureVersion: rr.S,
			Label:            rr.L,
		}
	}
	return r
}

// blockJob is one committed block of one month — the unit every
// full-store pass (Scan, IterAll/IterReports, Verify's index check)
// schedules.
type blockJob struct {
	month string
	path  string
	seq   int
	bm    blockMeta
}

// planBlocks is the one planner behind every full-store pass. It walks
// the indexed months in storage order (month ascending; a non-empty
// only restricts the walk to that month), snapshots each month's block
// list, and schedules the blocks pick keeps, in block-sequence order.
// pick runs once per month — where a pass does its per-month work
// (posting lookups, tiling checks) — and returns that month's
// per-block filter.
func (s *Store) planBlocks(only string, pick func(mi monthIndex, blocks []blockMeta) (keep func(seq int) bool)) []blockJob {
	var jobs []blockJob
	for _, mi := range s.monthIndexes(only) {
		blocks := mi.ix.snapshotBlocks()
		keep := pick(mi, blocks)
		path := s.partPath(mi.month)
		for seq, bm := range blocks {
			if keep(seq) {
				jobs = append(jobs, blockJob{month: mi.month, path: path, seq: seq, bm: bm})
			}
		}
	}
	return jobs
}

// runJobs is the one worker pool: it calls run(0..n-1) from up to
// workers goroutines (<= 0 uses GOMAXPROCS; 1, or a single job, runs
// serially in index order) and returns the first error, after which
// no further job starts.
func runJobs(workers, n int, run func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	jobc := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobc {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				if err := run(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobc <- i
	}
	close(jobc)
	wg.Wait()
	return firstErr
}

// IterReports streams every report in a month partition in storage
// order.
func (s *Store) IterReports(month string, fn func(*report.ScanReport) error) error {
	return s.iterBlocks(month, 1, func(_ string, r *report.ScanReport) error { return fn(r) })
}

// IterAll streams every report in the store through fn, fanning
// partition blocks across a pool of workers (workers <= 0 uses
// GOMAXPROCS; 1 iterates serially in storage order). It flushes
// first, like IterReports. With workers > 1, fn is called from
// multiple goroutines concurrently and no ordering is guaranteed —
// fn must be safe for concurrent use. The first error stops the
// pass.
func (s *Store) IterAll(workers int, fn func(month string, r *report.ScanReport) error) error {
	return s.iterBlocks("", workers, fn)
}

// iterBlocks flushes, plans every non-empty block (of one month, or
// of the whole store), and materializes each block's rows as reports
// for fn on the worker pool.
func (s *Store) iterBlocks(only string, workers int, fn func(month string, r *report.ScanReport) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	jobs := s.planBlocks(only, func(_ monthIndex, blocks []blockMeta) func(int) bool {
		return func(seq int) bool { return blocks[seq].Rows > 0 }
	})
	return runJobs(workers, len(jobs), func(i int) error {
		j := jobs[i]
		var inner error
		err := scanBlock(j.path, j.bm, s.maxFormat, func(row scanRow) {
			if inner == nil {
				inner = fn(j.month, rowToReport(row))
			}
		})
		if err != nil {
			return err
		}
		return inner
	})
}

// Reindex rebuilds every partition's block index by re-walking its
// gzip members, and persists fresh sidecars — the unconditional repair
// for sidecars Open accepted but Verify disproves (ErrIndexMismatch).
// Open already rebuilds whatever it cannot trust, so after a crash
// this is rarely needed. Partitions written before block compression
// existed get one block per historical flush, which still lets Get
// skip every member without its sample.
func (s *Store) Reindex() error {
	if err := s.Flush(); err != nil {
		return err
	}
	for _, mi := range s.monthIndexes("") {
		ix, err := s.rebuildIndex(mi.month)
		if err != nil {
			return err
		}
		if err := ix.writeSidecar(s.dir, mi.month); err != nil {
			return err
		}
	}
	return nil
}

// CachedHistories reports how many decoded histories the read cache
// currently holds (0 when the cache is disabled).
func (s *Store) CachedHistories() int { return s.cache.len() }

// Months returns the partition keys present, sorted.
func (s *Store) Months() []string {
	s.smu.Lock()
	defer s.smu.Unlock()
	out := make([]string, 0, len(s.stats))
	for m := range s.stats {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Stats returns the accounting for one month. StoredBytes is only
// final after Flush.
func (s *Store) Stats(month string) PartitionStats {
	s.smu.Lock()
	defer s.smu.Unlock()
	if st, ok := s.stats[month]; ok {
		return *st
	}
	return PartitionStats{}
}

// TotalStats sums all partitions.
func (s *Store) TotalStats() PartitionStats {
	s.smu.Lock()
	defer s.smu.Unlock()
	var total PartitionStats
	for _, st := range s.stats {
		total.Reports += st.Reports
		total.RawBytes += st.RawBytes
		total.StoredBytes += st.StoredBytes
	}
	return total
}

// NumSamples returns the number of distinct samples stored.
func (s *Store) NumSamples() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.samples)
		sh.mu.Unlock()
	}
	return n
}

// SampleHashes returns every stored sample hash, sorted.
func (s *Store) SampleHashes() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for h := range sh.samples {
			out = append(out, h)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Meta returns the latest metadata snapshot for a sample.
func (s *Store) Meta(sha string) (report.SampleMeta, bool) {
	sh := s.shardFor(sha)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.samples[sha]
	return m, ok
}

// TypeStats is the per-file-type breakdown of stored data — the Table
// 3 view over a collected store rather than a generated population.
type TypeStats struct {
	Samples int
	Reports int
}

// StatsByType tallies stored samples and scan rows per file type
// using all cores; it flushes first so buffered rows are counted.
func (s *Store) StatsByType() (map[string]TypeStats, error) {
	return s.StatsByTypeWorkers(0)
}

// StatsByTypeWorkers is StatsByType over an explicit worker count
// (<= 0 uses GOMAXPROCS). It runs on the pushdown scan engine
// projecting only the file-type column: v2 blocks decode one
// dictionary and one segment — no row materialization, no result
// decoding — and empty blocks are pruned without decompression; v1
// blocks take full row decodes, the only way to read them.
func (s *Store) StatsByTypeWorkers(workers int) (map[string]TypeStats, error) {
	out := map[string]TypeStats{}
	for _, meta := range s.snapshotSamples() {
		ts := out[meta.FileType]
		ts.Samples++
		out[meta.FileType] = ts
	}
	var group GroupCountByType
	if _, err := s.Scan(Query{Cols: ColFT, Workers: workers}, &group); err != nil {
		return nil, err
	}
	for ft, n := range group.Counts {
		ts := out[ft]
		ts.Reports += int(n)
		out[ft] = ts
	}
	return out, nil
}

// Verify re-reads every partition on all cores, checking that each
// row parses, validates, and belongs to an indexed sample, and that
// every sidecar block entry agrees with its partition payload. It
// returns the number of rows checked.
func (s *Store) Verify() (int, error) { return s.VerifyWorkers(0) }

// VerifyWorkers is Verify over an explicit worker count (<= 0 uses
// GOMAXPROCS). On failure the returned count reflects the rows
// checked before the pass stopped, which with workers > 1 is
// approximate. The row pass runs on the pushdown scan engine with an
// unfiltered full-projection query, so it also exercises the scan
// decode paths it shares with every aggregation.
func (s *Store) VerifyWorkers(workers int) (int, error) {
	known := make(map[string]bool)
	for h := range s.snapshotSamples() {
		known[h] = true
	}
	agg := verifyAgg{known: known}
	stats, err := s.Scan(Query{Cols: ColAll, Workers: workers}, &agg)
	if err == nil {
		err = s.verifyBlockIndexes(workers)
	}
	return int(stats.Rows), err
}

// verifyAgg is Verify's row kernel: every row must belong to an
// indexed sample, be filed under its own month, and survive
// report.Validate — which recomputes AV rank and active-engine counts
// from the results, so the kernel needs the full projection.
type verifyAgg struct {
	known map[string]bool // read-only once Scan starts
}

type verifyPartial struct {
	known map[string]bool
	r     report.ScanReport // scratch: Results reused across rows
}

func (a *verifyAgg) NewPartial() Partial { return &verifyPartial{known: a.known} }

func (a *verifyAgg) Merge(Partial) error { return nil }

func (p *verifyPartial) Row(rv *RowView) error {
	if !p.known[rv.SHA] {
		return fmt.Errorf("store: %s row %s not in sample index", rv.Month, rv.SHA)
	}
	if MonthKey(fromUnix(rv.At)) != rv.Month {
		return fmt.Errorf("store: row %s at %d filed under %s", rv.SHA, rv.At, rv.Month)
	}
	p.r = report.ScanReport{
		SHA256:       rv.SHA,
		FileType:     rv.FT,
		AnalysisDate: fromUnix(rv.At),
		AVRank:       rv.Rank,
		EnginesTotal: rv.Tot,
		Results:      p.r.Results[:0],
	}
	for i := range rv.Res {
		r := &rv.Res[i]
		p.r.Results = append(p.r.Results, report.EngineResult{
			Engine:           r.Eng,
			Verdict:          report.Verdict(r.Ver),
			Label:            r.Lab,
			SignatureVersion: r.Sig,
		})
	}
	if err := p.r.Validate(); err != nil {
		return fmt.Errorf("store: row %s invalid: %w", rv.SHA, err)
	}
	return nil
}

// ErrIndexMismatch is returned by Verify when a sidecar block entry
// disagrees with the partition payload it points at — wrong row
// count, raw-byte total, format version, or posting list. The sidecar
// is acceleration state, so a disagreement means replication parity
// checks and indexed Gets can no longer trust it; Reindex rebuilds it
// from the partition bytes.
var ErrIndexMismatch = errors.New("store: block index disagrees with partition payload")

// verifyBlockIndexes cross-checks every month's in-memory block index
// (which mirrors the sidecar) against the partition payloads: blocks
// must tile the file exactly, and each block's claimed rows, raw
// bytes, version, zone map, and posting membership must match what its
// payload actually decodes to. This is what lets `vtstore verify`
// vouch for a replica: a follower whose sidecars pass this and whose
// partitions hash equal to the leader's is a true replica.
func (s *Store) verifyBlockIndexes(workers int) error {
	// want[i] is the sample set job i's postings claim for its block;
	// planErr is the first month whose index fails the structural checks.
	var (
		want    []map[string]bool
		planErr error
	)
	checkMonth := func(month string, ix *partIndex, blocks []blockMeta) error {
		var size int64
		if fi, err := os.Stat(s.partPath(month)); err == nil {
			size = fi.Size()
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		var off int64
		for seq, bm := range blocks {
			if bm.Offset != off || bm.Len <= 0 {
				return fmt.Errorf("%w: %s block %d at offset %d, expected %d", ErrIndexMismatch, month, seq, bm.Offset, off)
			}
			off += bm.Len
		}
		if off != size {
			return fmt.Errorf("%w: %s index covers %d bytes, partition holds %d", ErrIndexMismatch, month, off, size)
		}
		named := make([]map[string]bool, len(blocks))
		for sha, ids := range ix.snapshotPostings() {
			for _, id := range ids {
				if id < 0 || id >= len(blocks) {
					return fmt.Errorf("%w: %s posting for %s names block %d of %d", ErrIndexMismatch, month, sha, id, len(blocks))
				}
				if named[id] == nil {
					named[id] = make(map[string]bool)
				}
				named[id][sha] = true
			}
		}
		want = append(want, named...)
		return nil
	}
	jobs := s.planBlocks("", func(mi monthIndex, blocks []blockMeta) func(int) bool {
		if planErr == nil {
			planErr = checkMonth(mi.month, mi.ix, blocks)
		}
		return func(int) bool { return planErr == nil }
	})
	if planErr != nil {
		return planErr
	}
	return runJobs(workers, len(jobs), func(i int) error {
		j, want := jobs[i], want[i]
		f, err := os.Open(j.path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer f.Close()
		payload, err := readBlockPayloadAt(f, j.path, j.bm)
		if err != nil {
			return err
		}
		defer bufpool.PutBlockBuf(payload)
		sum, err := analyzePayload(j.path, payload, s.maxFormat)
		switch {
		case errors.Is(err, ErrUnsupportedFormat):
			return err
		case err != nil:
			return fmt.Errorf("%w: %s block %d payload: %v", ErrIndexMismatch, j.month, j.seq, err)
		}
		if sum.ver != blockVer(j.bm) || sum.rows != j.bm.Rows || sum.raw != j.bm.Raw {
			return fmt.Errorf("%w: %s block %d is v%d/%d rows/%d raw, sidecar says v%d/%d/%d",
				ErrIndexMismatch, j.month, j.seq, sum.ver, sum.rows, sum.raw, blockVer(j.bm), j.bm.Rows, j.bm.Raw)
		}
		// Zone maps are pure functions of the payload, so the entry's
		// zone must equal the recomputed one exactly.
		if sum.zone != j.bm.zone() {
			return fmt.Errorf("%w: %s block %d zone map disagrees with payload (sidecar %+v, payload %+v)",
				ErrIndexMismatch, j.month, j.seq, j.bm.zone(), sum.zone)
		}
		if len(sum.shas) != len(want) {
			return fmt.Errorf("%w: %s block %d holds %d samples, postings name %d",
				ErrIndexMismatch, j.month, j.seq, len(sum.shas), len(want))
		}
		for sha := range sum.shas {
			if !want[sha] {
				return fmt.Errorf("%w: %s block %d holds %s, which its postings do not name",
					ErrIndexMismatch, j.month, j.seq, sha)
			}
		}
		return nil
	})
}
