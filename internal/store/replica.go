// Replication hooks: the store as a replication log.
//
// Partitions are append-only sequences of independently-readable gzip
// members ("blocks"), committed strictly in order and byte-identical
// across worker counts — which makes the block the natural unit of
// replication. This file exports the two halves internal/sync builds
// on:
//
//   - Leader side: ReplState (per-month committed block positions),
//     BlocksSince (block metadata after a cursor), ReadBlock (the
//     committed compressed bytes of one block), and the state-file
//     encoders WriteSamplesSnapshot / StatsJSON, which serialize the
//     live in-memory state with exactly the bytes Close writes.
//   - Follower side: ApplyBlocks (verify-then-append replicated
//     blocks, maintaining the block index, sample membership, and
//     accounting), ApplySamplesSnapshot / ApplyStatsSnapshot (state
//     files, applied to memory and persisted atomically), and
//     RepairDir (crash recovery: truncate torn partition tails and
//     rebuild sidecars so a restarted follower resumes from its last
//     durable block boundary).
//
// The verify-then-apply invariant: ApplyBlocks never trusts wire
// metadata. Every block's payload is decompressed and re-analyzed
// (rows decoded for v1, the sha dictionary parsed for v2) and must
// agree with the claimed row count, raw bytes, format version, and
// append offset before a single byte lands in the partition — so a
// follower's sidecar postings are derived from its own bytes, which
// is what makes leader and follower sidecars byte-identical.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/durable"
	"vtdynamics/internal/report"
)

// ErrUnknownMonth is returned by BlocksSince and ReadBlock for months
// the store holds no partition for. (Every partition on disk has a
// block index from Open on, so there is no "present but unindexed"
// state to report.)
var ErrUnknownMonth = errors.New("store: unknown month")

// ErrReplMismatch is returned by ApplyBlocks when a replicated block
// disagrees with the replica's committed state or with its own
// payload — wrong append offset, wrong sequence number, or wire
// metadata (rows, raw bytes, version) that the decompressed payload
// contradicts. The offending block and everything after it are not
// applied.
var ErrReplMismatch = errors.New("store: replicated block mismatch")

// ErrUnknownBlock is returned by ReadBlock and BlocksSince for block
// sequence numbers the month does not (yet) have.
var ErrUnknownBlock = errors.New("store: unknown block")

// MonthState is one month's committed replication position: how many
// blocks its partition holds and how many bytes they cover.
type MonthState struct {
	Blocks   int
	FileSize int64
}

// ReplBlock describes one committed partition block for replication.
type ReplBlock struct {
	// Month is the partition key (YYYY-MM).
	Month string
	// Seq is the block's index within its month, starting at 0.
	Seq int
	// Offset and Len locate the compressed member in the partition.
	Offset int64
	Len    int64
	// Rows and Raw are the member's row count and JSONL-equivalent
	// uncompressed byte total (the sidecar accounting).
	Rows int
	Raw  int64
	// Ver is the member payload's format version, normalized: v1 is
	// FormatV1, never the sidecar's legacy 0.
	Ver int
}

// ValidMonthKey reports whether month is a well-formed partition key
// (YYYY-MM). Replication decodes months off the wire and joins them
// into file paths, so anything else is rejected before it can name a
// file.
func ValidMonthKey(month string) bool {
	if len(month) != 7 || month[4] != '-' {
		return false
	}
	for i := 0; i < len(month); i++ {
		if i == 4 {
			continue
		}
		if month[i] < '0' || month[i] > '9' {
			return false
		}
	}
	return true
}

// state returns the index's committed block count and covered bytes.
func (ix *partIndex) state() (int, int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.blocks), ix.fileSize
}

// ReplState returns the committed replication position of every month
// on disk — Open indexes them all, so the manifest a leader serves
// never omits a partition. Blocks recorded here are fully on disk: the
// index is only appended to after a block's bytes are written.
func (s *Store) ReplState() map[string]MonthState {
	s.imu.Lock()
	defer s.imu.Unlock()
	out := make(map[string]MonthState, len(s.indexes))
	for month, ix := range s.indexes {
		n, size := ix.state()
		out[month] = MonthState{Blocks: n, FileSize: size}
	}
	return out
}

// BlocksSince returns up to maxBlocks committed blocks of month
// starting at sequence number seq, additionally capped at maxBytes of
// compressed payload (always returning at least one block when any is
// due). maxBlocks/maxBytes <= 0 mean unlimited. A month the store does
// not hold returns ErrUnknownMonth; a seq past the committed count returns
// ErrUnknownBlock (seq == count returns an empty slice — the caller
// is caught up).
func (s *Store) BlocksSince(month string, seq, maxBlocks int, maxBytes int64) ([]ReplBlock, error) {
	if !ValidMonthKey(month) {
		return nil, fmt.Errorf("store: bad month key %q", month)
	}
	ix := s.index(month)
	if ix == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMonth, month)
	}
	blocks := ix.snapshotBlocks()
	if seq < 0 || seq > len(blocks) {
		return nil, fmt.Errorf("%w: %s seq %d (have %d)", ErrUnknownBlock, month, seq, len(blocks))
	}
	var (
		out   []ReplBlock
		total int64
	)
	for i := seq; i < len(blocks); i++ {
		bm := blocks[i]
		if maxBlocks > 0 && len(out) >= maxBlocks {
			break
		}
		if maxBytes > 0 && len(out) > 0 && total+bm.Len > maxBytes {
			break
		}
		out = append(out, ReplBlock{
			Month:  month,
			Seq:    i,
			Offset: bm.Offset,
			Len:    bm.Len,
			Rows:   bm.Rows,
			Raw:    bm.Raw,
			Ver:    blockVer(bm),
		})
		total += bm.Len
	}
	return out, nil
}

// ReadBlock returns the committed compressed bytes of one block,
// re-validating the reference against the current index first.
func (s *Store) ReadBlock(ref ReplBlock) ([]byte, error) {
	if !ValidMonthKey(ref.Month) {
		return nil, fmt.Errorf("store: bad month key %q", ref.Month)
	}
	ix := s.index(ref.Month)
	if ix == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownMonth, ref.Month)
	}
	blocks := ix.snapshotBlocks()
	if ref.Seq < 0 || ref.Seq >= len(blocks) {
		return nil, fmt.Errorf("%w: %s seq %d (have %d)", ErrUnknownBlock, ref.Month, ref.Seq, len(blocks))
	}
	bm := blocks[ref.Seq]
	if bm.Offset != ref.Offset || bm.Len != ref.Len {
		return nil, fmt.Errorf("%w: %s seq %d is @%d+%d, ref says @%d+%d",
			ErrUnknownBlock, ref.Month, ref.Seq, bm.Offset, bm.Len, ref.Offset, ref.Len)
	}
	f, err := os.Open(s.partPath(ref.Month))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	data := make([]byte, bm.Len)
	if _, err := io.ReadFull(io.NewSectionReader(f, bm.Offset, bm.Len), data); err != nil {
		return nil, fmt.Errorf("store: %s: block @%d: %w", ref.Month, bm.Offset, err)
	}
	return data, nil
}

// ApplyBlocks verifies and appends replicated blocks to month's
// partition, in order. It is the follower half of the sync protocol:
// each block's data must be exactly one gzip member whose decompressed
// payload agrees with the block's claimed rows, raw bytes, and format
// version, and whose sequence/offset continue the replica's committed
// state exactly — otherwise ErrReplMismatch (or a *FormatError for
// payloads from a future format) and nothing from the offending block
// on is applied; blocks before it stay applied, consistently. On
// success the month's block index, the sample membership index, the
// read cache, and the partition accounting are updated, so Gets
// served from this store see the new rows immediately; call Sync
// afterwards to persist the grown sidecar.
//
// ApplyBlocks is for replica stores: it must not race local writes,
// and it refuses months that currently have an open partition writer.
func (s *Store) ApplyBlocks(month string, blocks []ReplBlock, data [][]byte) error {
	if len(blocks) == 0 {
		return nil
	}
	if len(blocks) != len(data) {
		return fmt.Errorf("store: ApplyBlocks: %d refs, %d payloads", len(blocks), len(data))
	}
	if !ValidMonthKey(month) {
		return fmt.Errorf("store: bad month key %q", month)
	}
	s.wmu.Lock()
	_, hasWriter := s.writers[month]
	s.wmu.Unlock()
	if hasWriter {
		return fmt.Errorf("store: ApplyBlocks %s: partition has an open writer (replica stores must not be written locally)", month)
	}
	path := s.partPath(month)
	ix := s.index(month)
	if ix == nil {
		// A month this replica has never seen starts an empty index; if
		// bytes appeared on disk behind the store's back, the size check
		// below refuses them.
		ix = newPartIndex()
		s.setIndex(month, ix)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	nBlocks, size := ix.state()
	if fi.Size() != size {
		return fmt.Errorf("%w: %s partition is %d bytes, index covers %d (repair the replica)",
			ErrReplMismatch, month, fi.Size(), size)
	}
	for i, b := range blocks {
		if b.Month != month {
			return fmt.Errorf("%w: block %d is for %q, batch is for %s", ErrReplMismatch, i, b.Month, month)
		}
		if b.Seq != nBlocks || b.Offset != size {
			return fmt.Errorf("%w: %s got block seq %d @%d, replica is at seq %d @%d",
				ErrReplMismatch, month, b.Seq, b.Offset, nBlocks, size)
		}
		if b.Len != int64(len(data[i])) {
			return fmt.Errorf("%w: %s seq %d: %d data bytes, ref says %d",
				ErrReplMismatch, month, b.Seq, len(data[i]), b.Len)
		}
		sum, err := s.verifyMemberPayload(data[i], b)
		if err != nil {
			return err
		}
		if _, err := f.Write(data[i]); err != nil {
			return fmt.Errorf("store: %s seq %d: %w", month, b.Seq, err)
		}
		ix.appendBlock(sum.meta(b.Offset, b.Offset+b.Len), sum.shas)
		for sha := range sum.shas {
			sh := s.shardFor(sha)
			sh.mu.Lock()
			set, ok := sh.months[sha]
			if !ok {
				set = make(map[string]bool)
				sh.months[sha] = set
			}
			set[month] = true
			sh.mu.Unlock()
			s.cache.invalidate(sha)
		}
		s.smu.Lock()
		st, ok := s.stats[month]
		if !ok {
			st = &PartitionStats{}
			s.stats[month] = st
		}
		st.Reports += sum.rows
		st.RawBytes += sum.raw
		st.StoredBytes += b.Len
		s.smu.Unlock()
		nBlocks++
		size += b.Len
	}
	return nil
}

// verifyMemberPayload decompresses one replicated member and checks
// the payload against the wire metadata — the verify half of
// verify-then-apply.
func (s *Store) verifyMemberPayload(data []byte, b ReplBlock) (payloadSummary, error) {
	br := bufpool.GetBufioReader(bytes.NewReader(data))
	defer bufpool.PutBufioReader(br)
	zr, err := bufpool.GetGzipReader(br)
	if err != nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: not a gzip member: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	defer bufpool.PutGzipReader(zr)
	defer zr.Close()
	zr.Multistream(false)
	payload, err := readAllPooled(zr)
	defer bufpool.PutBlockBuf(payload)
	if err != nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: corrupt member: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	// Exactly one member: trailing bytes would smuggle unaccounted rows
	// past the index.
	if err := zr.Reset(br); err == nil {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: trailing data after gzip member", ErrReplMismatch, b.Month, b.Seq)
	} else if !errors.Is(err, io.EOF) {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: trailing garbage after gzip member", ErrReplMismatch, b.Month, b.Seq)
	}
	sum, err := analyzePayload(s.partPath(b.Month), payload, s.maxFormat)
	switch {
	case errors.Is(err, ErrUnsupportedFormat):
		return payloadSummary{}, err
	case err != nil:
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: payload: %v", ErrReplMismatch, b.Month, b.Seq, err)
	}
	if sum.ver != b.Ver || sum.rows != b.Rows || sum.raw != b.Raw {
		return payloadSummary{}, fmt.Errorf("%w: %s seq %d: payload is v%d/%d rows/%d raw, ref says v%d/%d/%d",
			ErrReplMismatch, b.Month, b.Seq, sum.ver, sum.rows, sum.raw, b.Ver, b.Rows, b.Raw)
	}
	return sum, nil
}

// WriteSamplesSnapshot serializes the live sample-metadata index to w
// with exactly the bytes Close writes to samples.jsonl.gz (sorted by
// hash, deterministic gzip). Close shares this encoder; the leader
// serves it so followers converge on a byte-identical metadata
// snapshot.
func (s *Store) WriteSamplesSnapshot(w io.Writer) error {
	gz := bufpool.GetGzipWriter(w)
	defer bufpool.PutGzipWriter(gz)
	enc := json.NewEncoder(gz)
	metas := s.snapshotSamples()
	hashes := make([]string, 0, len(metas))
	for h := range metas {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		row := struct {
			Meta metaRow `json:"m"`
		}{Meta: metaFrom(metas[h])}
		if err := enc.Encode(row); err != nil {
			gz.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// StatsJSON serializes the live per-month accounting with exactly the
// bytes Close writes to stats.json.
func (s *Store) StatsJSON() ([]byte, error) {
	s.smu.Lock()
	snapshot := make(map[string]PartitionStats, len(s.stats))
	for month, st := range s.stats {
		snapshot[month] = *st
	}
	s.smu.Unlock()
	b, err := json.Marshal(snapshot)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// decodeSamplesSnapshot parses a samples.jsonl.gz byte stream in full.
func decodeSamplesSnapshot(r io.Reader) ([]report.SampleMeta, error) {
	gz, err := bufpool.GetGzipReader(r)
	if err != nil {
		return nil, fmt.Errorf("store: samples snapshot: %w", err)
	}
	defer bufpool.PutGzipReader(gz)
	defer gz.Close()
	dec := json.NewDecoder(gz)
	var out []report.SampleMeta
	for {
		var m struct {
			Meta metaRow `json:"m"`
		}
		if err := dec.Decode(&m); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("store: samples snapshot: %w", err)
		}
		out = append(out, m.Meta.toMeta())
	}
	return out, nil
}

// ApplySamplesSnapshot replaces the replica's sample-metadata index
// with a snapshot fetched from the leader and persists the exact
// bytes atomically as samples.jsonl.gz. The snapshot is fully parsed
// before anything is applied.
func (s *Store) ApplySamplesSnapshot(data []byte) error {
	rows, err := decodeSamplesSnapshot(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.samples = make(map[string]report.SampleMeta)
		sh.mu.Unlock()
	}
	for _, m := range rows {
		sh := s.shardFor(m.SHA256)
		sh.mu.Lock()
		sh.samples[m.SHA256] = m
		sh.mu.Unlock()
	}
	return durable.WriteFile(filepath.Join(s.dir, "samples.jsonl.gz"), false, durable.Bytes(data))
}

// ApplyStatsSnapshot replaces the replica's per-month accounting with
// the leader's and persists the exact bytes atomically as stats.json.
func (s *Store) ApplyStatsSnapshot(data []byte) error {
	var saved map[string]PartitionStats
	if err := json.Unmarshal(data, &saved); err != nil {
		return fmt.Errorf("store: stats snapshot: %w", err)
	}
	s.smu.Lock()
	s.stats = make(map[string]*PartitionStats, len(saved))
	for month, st := range saved {
		cp := st
		s.stats[month] = &cp
	}
	s.smu.Unlock()
	return durable.WriteFile(filepath.Join(s.dir, "stats.json"), false, durable.Bytes(data))
}

// RepairStats summarizes one RepairDir pass.
type RepairStats struct {
	// Repaired lists months whose sidecar was rebuilt, sorted.
	Repaired []string
	// TruncatedBytes counts torn partition-tail bytes dropped.
	TruncatedBytes int64
	// JournalTruncatedBytes counts checkpoint.log bytes dropped behind
	// its last whole record.
	JournalTruncatedBytes int64
}

// RepairDir restores a store directory to a durable, indexed state
// after a crash: every month whose sidecar does not cleanly cover its
// partition is re-walked member by member, the partition is truncated
// at the first unreadable byte (a torn tail from an interrupted
// append), and a fresh sidecar is written. Run it before Open on a
// replica so the follower's cursor — derived from the sidecars —
// points at its last durable block boundary; everything truncated is
// simply re-pulled from the leader. Months in a format newer than
// this build are an error, never a truncation. A checkpoint journal
// (journal.go) that is invalid anywhere — not just in the final record
// Open forgives — is truncated at its last whole record; rows it still
// carries past a truncated partition tail are re-fed by Open.
func RepairDir(dir string) (RepairStats, error) {
	var rs RepairStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return rs, nil
		}
		return rs, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "scans-") || !strings.HasSuffix(name, ".jsonl.gz") {
			continue
		}
		month := strings.TrimSuffix(strings.TrimPrefix(name, "scans-"), ".jsonl.gz")
		path := filepath.Join(dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			return rs, fmt.Errorf("store: %w", err)
		}
		if _, ok, err := loadSidecar(dir, month, fi.Size(), formatMax); err != nil {
			return rs, err
		} else if ok {
			continue // sidecar cleanly covers the partition
		}
		// Anything that stops the member walk short is a torn tail and
		// is truncated away — except a member from a newer build, whose
		// data is intact: this build is just too old to touch it.
		ix, goodEnd, torn, err := indexPartition(path, formatMax)
		if errors.Is(torn, ErrUnsupportedFormat) {
			err = torn
		}
		if err != nil {
			return rs, err
		}
		if goodEnd < fi.Size() {
			if err := os.Truncate(path, goodEnd); err != nil {
				return rs, fmt.Errorf("store: repair %s: %w", month, err)
			}
			rs.TruncatedBytes += fi.Size() - goodEnd
		}
		ix.dirty = true
		if err := ix.writeSidecar(dir, month); err != nil {
			return rs, err
		}
		rs.Repaired = append(rs.Repaired, month)
	}
	sort.Strings(rs.Repaired)
	rs.JournalTruncatedBytes, err = repairJournal(dir)
	return rs, err
}
