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
// Read path: every read is a view. Get, Scan and the passes over Scan
// (IterAll, StatsByType, Verify) plan per-block jobs over one view per
// month — its sealed blocks, then the rows still pending in an open
// writer, copied from the writer's memory as one trailing in-memory
// block — on one planner and one worker pool. No read cuts, seals or
// flushes anything. Get plans only the blocks its sample's postings
// name, and decoded histories are served from an LRU cache with
// singleflight decode deduplication. Every caller gets a private
// History and Reports slice over shared, immutable *ScanReport
// elements (see Get).
package store

import (
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
	"vtdynamics/internal/durable"
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
	// fold, a snapshot write and a migration, and between a Get fixing
	// its pending rows and reading its blocks; an error stops the
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

// monthIndexes snapshots the indexes of months, in the order given
// (sorted, by every caller), skipping months without one; nil means
// every month, in month order. Every partition on disk is in the map,
// so this — not the accounting's month list, which a replicated stats
// snapshot can run ahead of — is what full-store passes iterate.
func (s *Store) monthIndexes(months []string) []monthIndex {
	s.imu.Lock()
	defer s.imu.Unlock()
	if months == nil {
		months = sortedKeys(s.indexes)
	}
	out := make([]monthIndex, 0, len(months))
	for _, month := range months {
		if ix := s.indexes[month]; ix != nil {
			out = append(out, monthIndex{month, ix})
		}
	}
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
	s.cache = newHistoryCache(s.cacheSize, s.m)
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

// MonthKey formats the partition key for an instant.
func MonthKey(t time.Time) string { return t.UTC().Format("2006-01") }

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
// Sync does not publish. Rows stay readable through every read (which
// reads pending rows from the writer's memory), but the sealed blocks
// that replication lists (ReplState, BlocksSince) gain them only when
// their block fills or at the next Flush. Flush — which leaves the store open for further Puts
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
	for _, mi := range s.monthIndexes(nil) {
		if err := mi.ix.writeSidecar(s.dir, mi.month); err != nil {
			return err
		}
	}
	return nil
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

// writeSnapshots persists the sample-metadata and stats snapshots
// through durable.WriteFile, so a crash mid-write never clobbers the
// previous good snapshot; sync fsyncs each before its rename, which a
// fold needs before it may drop the journal records the snapshots
// replace. Both files go through the same encoders the replication
// leader serves (WriteSamplesSnapshot, StatsJSON), so a follower that
// applied the leader's snapshots and then Closes rewrites identical
// bytes. The samples snapshot is O(total samples), which is why only
// Close and a fold write it.
func (s *Store) writeSnapshots(sync bool) error {
	if err := durable.WriteFile(filepath.Join(s.dir, "samples.jsonl.gz"), sync, s.WriteSamplesSnapshot); err != nil {
		return err
	}
	if err := s.step("samples"); err != nil {
		return err
	}
	// Persist the exact accounting for reloads.
	b, err := s.StatsJSON()
	if err != nil {
		return err
	}
	if err := durable.WriteFile(filepath.Join(s.dir, "stats.json"), sync, durable.Bytes(b)); err != nil {
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
	for _, mi := range s.monthIndexes(nil) {
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
