// Block index: the random-access read path.
//
// Each monthly partition is written as a sequence of independently
// closed gzip members ("blocks") of roughly blockSizeDefault
// uncompressed bytes. Concatenated gzip members are a valid gzip
// stream, so partition files stay readable by the streaming reader,
// by pre-index builds of this package, and by zcat. Alongside each
// partition the store persists a sidecar, scans-YYYY-MM.idx, holding
//
//   - the partition file size the index covers (staleness check),
//   - per-block (offset, compressed length, row count, raw bytes),
//   - a SHA→block-set posting list.
//
// Get seeks straight to the few blocks that hold its sample instead
// of gunzipping the whole month. The sidecar is a cache of what the
// partition bytes already say: Open accepts it only when it covers the
// file exactly and every entry carries a zone map, and otherwise
// rebuilds the index from the gzip members (indexPartition) and marks
// it dirty, so the next Flush/Sync/Close writes a fresh sidecar. Every
// month on disk therefore has a complete in-memory partIndex for as
// long as the store is open — no reader, planner, or committer has a
// "month without an index" case. Reindex is the same rebuild run
// unconditionally over every month.
package store

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/durable"
)

// blockSizeDefault is the target uncompressed size of one block. Big
// enough that gzip member overhead and per-block seek cost stay
// negligible, small enough that Get decodes only a sliver of a month.
const blockSizeDefault = 256 << 10

// blockMeta locates one gzip member inside a partition file.
type blockMeta struct {
	// Offset is the member's first byte in the partition file.
	Offset int64 `json:"o"`
	// Len is the member's compressed length in bytes.
	Len int64 `json:"l"`
	// Rows is the number of scan rows in the member.
	Rows int `json:"n"`
	// Raw is the sum of uncompressed row lengths (sans newlines) —
	// the same conservative accounting load() derives when scanning.
	// v2 blocks carry the identical figure in their payload header, so
	// accounting never depends on the block's format.
	Raw int64 `json:"r"`
	// Ver is the member payload's format version; 0 means v1, which
	// keeps the sidecar bytes of pure-v1 partitions identical to what
	// pre-versioning builds wrote (omitempty).
	Ver int `json:"v,omitempty"`

	// Zone map (sidecar v3, zonemap.go). Z == 1 marks the zone fields
	// as present. Every entry held in memory has it: loadSidecar turns
	// away sidecars with pre-zone (Z == 0) entries and Open rebuilds
	// them, so nothing downstream tests Z — the field stays only so
	// sidecar bytes do not change. All zone fields are omitempty so
	// zero stats stay compact.
	Z    int    `json:"z,omitempty"`
	TMin int64  `json:"t0,omitempty"`
	TMax int64  `json:"t1,omitempty"`
	Mal  int    `json:"m,omitempty"`
	FTB  uint64 `json:"fb,omitempty"`
	EngB uint64 `json:"eb,omitempty"`
	LabB uint64 `json:"lb,omitempty"`
}

// sidecarVerZones is the sidecar schema this build writes. The sidecar
// was unversioned before zone maps (implicitly v2, the PR-2 schema);
// v3 adds the per-block zone fields and an explicit "ver" marker.
const sidecarVerZones = 3

// sidecarFile is the on-disk JSON schema of scans-YYYY-MM.idx.
type sidecarFile struct {
	// FileSize is the partition size the blocks cover; a mismatch with
	// the actual file marks the sidecar stale.
	FileSize int64 `json:"file_size"`
	// Ver is the sidecar schema version: absent (0) for legacy
	// pre-zone sidecars, sidecarVerZones for sidecars this build
	// writes. Acceptance never keys off Ver — each block's Z flag
	// governs — so a legacy sidecar a zone-aware writer appended to is
	// judged by its entries.
	Ver      int              `json:"ver,omitempty"`
	Blocks   []blockMeta      `json:"blocks"`
	Postings map[string][]int `json:"postings"`
}

// partIndex is the in-memory block index of one monthly partition.
// Writers append blocks under the partition writer's lock; readers
// snapshot under mu, so a Get never blocks behind gzip compression.
type partIndex struct {
	mu       sync.RWMutex
	fileSize int64
	blocks   []blockMeta
	postings map[string][]int
	// rows and raw are running totals over blocks, so a checkpoint reads
	// them without walking the month.
	rows  int
	raw   int64
	dirty bool // the sidecar on disk is missing, rejected, or behind the blocks
	// unsynced: a block was appended to the partition since its last
	// fsync. Only a journaling store ever clears (or acts on) it.
	unsynced bool

	// sideMu serializes writeSidecar, so a Sync racing a Flush never
	// has two writers sharing the sidecar's temp file.
	sideMu sync.Mutex
}

func newPartIndex() *partIndex {
	return &partIndex{postings: make(map[string][]int)}
}

// appendBlock records one freshly cut gzip member and its samples.
func (ix *partIndex) appendBlock(bm blockMeta, shas map[string]int) {
	ix.mu.Lock()
	n := len(ix.blocks)
	ix.blocks = append(ix.blocks, bm)
	for sha := range shas {
		ix.postings[sha] = append(ix.postings[sha], n)
	}
	ix.fileSize = bm.Offset + bm.Len
	ix.rows += bm.Rows
	ix.raw += bm.Raw
	ix.dirty = true
	ix.unsynced = true
	ix.mu.Unlock()
}

// takeUnsynced reports whether a block arrived since the partition's
// last fsync and clears the mark — before the caller fsyncs, so a block
// committed meanwhile is caught by the next call.
func (ix *partIndex) takeUnsynced() bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	was := ix.unsynced
	ix.unsynced = false
	return was
}

// numBlocks is the length of the block list.
func (ix *partIndex) numBlocks() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.blocks)
}

// totals returns the rows and raw bytes of all blocks.
func (ix *partIndex) totals() (rows int, raw int64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.rows, ix.raw
}

// sampleSHAs lists every sample with rows in the partition.
func (ix *partIndex) sampleSHAs() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.postings))
	for sha := range ix.postings {
		out = append(out, sha)
	}
	return out
}

// snapshotBlocks copies the block list, in file order.
func (ix *partIndex) snapshotBlocks() []blockMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]blockMeta(nil), ix.blocks...)
}

// blocksBelow copies the first n entries of the block list (all of
// them when it is shorter), with room for one more.
func (ix *partIndex) blocksBelow(n int) []blockMeta {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n = min(n, len(ix.blocks))
	return append(make([]blockMeta, 0, n+1), ix.blocks[:n]...)
}

// snapshotPostings deep-copies the SHA→block-set posting list.
func (ix *partIndex) snapshotPostings() map[string][]int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make(map[string][]int, len(ix.postings))
	for sha, ids := range ix.postings {
		out[sha] = append([]int(nil), ids...)
	}
	return out
}

// sidecarPath names the index sidecar for a month.
func sidecarPath(dir, month string) string {
	return filepath.Join(dir, "scans-"+month+".idx")
}

// writeSidecar persists the index if the sidecar on disk is behind it.
// Postings are a map, which encoding/json serializes with sorted keys,
// so sidecar bytes are deterministic — the concurrency determinism
// harness hashes them along with the partitions. The file is replaced
// by durable.WriteFile, so a crash mid-write leaves the previous
// sidecar (or none), never torn JSON; dirty clears only once the
// rename succeeded and no block arrived meanwhile, so a failed write is
// retried by the next Flush/Sync.
func (ix *partIndex) writeSidecar(dir, month string) error {
	ix.sideMu.Lock()
	defer ix.sideMu.Unlock()
	ix.mu.RLock()
	if !ix.dirty {
		ix.mu.RUnlock()
		return nil
	}
	sf := sidecarFile{
		FileSize: ix.fileSize,
		Ver:      sidecarVerZones,
		Blocks:   append([]blockMeta(nil), ix.blocks...),
		Postings: make(map[string][]int, len(ix.postings)),
	}
	for sha, ids := range ix.postings {
		sf.Postings[sha] = append([]int(nil), ids...)
	}
	ix.mu.RUnlock()
	b, err := json.Marshal(sf)
	if err != nil {
		return fmt.Errorf("store: index sidecar: %w", err)
	}
	if err := durable.WriteFile(sidecarPath(dir, month), false, durable.Bytes(b)); err != nil {
		return err
	}
	ix.mu.Lock()
	if len(ix.blocks) == len(sf.Blocks) {
		ix.dirty = false
	}
	ix.mu.Unlock()
	return nil
}

// loadSidecar reads a month's sidecar and validates it against the
// partition's current size. Any mismatch, unreadable file, malformed
// JSON, or entry without a zone map yields (nil, false, nil): the
// caller rebuilds the index from the partition bytes exactly as if
// the sidecar never existed. A block tagged with a format version
// newer than maxVer is different — the data is intact but unreadable
// by this build, so the error is a *FormatError, never a silent
// rebuild that would then choke on the member bytes.
func loadSidecar(dir, month string, partitionSize int64, maxVer int) (*partIndex, bool, error) {
	b, err := os.ReadFile(sidecarPath(dir, month))
	if err != nil {
		return nil, false, nil
	}
	var sf sidecarFile
	if err := json.Unmarshal(b, &sf); err != nil {
		return nil, false, nil
	}
	// A sidecar schema from the future is treated like a missing
	// sidecar, not an error: the partition bytes are self-describing,
	// so the rebuild stays correct (and a future *block* format inside
	// still fails loudly via the payload sniff).
	if sf.Ver > sidecarVerZones {
		return nil, false, nil
	}
	if sf.FileSize != partitionSize {
		return nil, false, nil
	}
	// Internal consistency: blocks must tile [0, FileSize), every block
	// must carry a zone map, and every posting must point at a real
	// block.
	var off int64
	zoned := true
	for _, bm := range sf.Blocks {
		if bm.Offset != off || bm.Len <= 0 {
			return nil, false, nil
		}
		off += bm.Len
		if v := blockVer(bm); v > maxVer {
			return nil, false, &FormatError{Path: sidecarPath(dir, month), Version: v, Max: maxVer}
		}
		zoned = zoned && bm.Z != 0
	}
	if off != sf.FileSize || !zoned {
		return nil, false, nil
	}
	for _, ids := range sf.Postings {
		for _, id := range ids {
			if id < 0 || id >= len(sf.Blocks) {
				return nil, false, nil
			}
		}
	}
	ix := &partIndex{
		fileSize: sf.FileSize,
		blocks:   sf.Blocks,
		postings: sf.Postings,
	}
	for _, bm := range sf.Blocks {
		ix.rows += bm.Rows
		ix.raw += bm.Raw
	}
	if ix.postings == nil {
		ix.postings = make(map[string][]int)
	}
	return ix, true, nil
}

// countingByteReader counts bytes consumed from the underlying
// buffered reader. It implements io.ByteReader so flate never reads
// past a gzip member's end — which makes c.n an exact member
// boundary after each Multistream(false) member drains.
type countingByteReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingByteReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

// walkMembers is the one gzip-member iterator. It hands every member of
// a partition file, in file order, to fn as the member's byte range
// [start, end) plus its decompressed payload (a pooled buffer, valid
// only during the call). goodEnd is the end of the last member fn
// accepted; torn is what stopped the walk short of EOF — a gzip-level
// failure (torn header, truncated or corrupt member) or fn's own error
// — and is nil when the whole file walked. err is reserved for
// failures that say nothing about the bytes (the file would not open).
// A missing or empty file is zero members.
func walkMembers(path string, fn func(start, end int64, payload []byte) error) (goodEnd int64, torn, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	cr := &countingByteReader{r: bufio.NewReaderSize(f, 1<<20)}
	zr, err := gzip.NewReader(cr)
	if err != nil {
		if errors.Is(err, io.EOF) { // empty partition
			return 0, nil, nil
		}
		return 0, fmt.Errorf("store: %s: %w", path, err), nil
	}
	defer zr.Close()
	var start int64
	for {
		zr.Multistream(false)
		payload, err := readAllPooled(zr)
		if err != nil {
			err = fmt.Errorf("store: %s: member @%d: %w", path, start, err)
		} else {
			err = fn(start, cr.n, payload)
		}
		bufpool.PutBlockBuf(payload)
		if err != nil {
			return start, err, nil
		}
		start = cr.n
		if err := zr.Reset(cr); err != nil {
			if errors.Is(err, io.EOF) {
				return start, nil, nil
			}
			return start, fmt.Errorf("store: %s: member @%d: %w", path, start, err), nil
		}
	}
}

// readAllPooled drains r into a pooled block buffer. The buffer comes
// back even on error, so the caller always releases it with
// bufpool.PutBlockBuf.
func readAllPooled(r io.Reader) ([]byte, error) {
	buf := bufpool.GetBlockBuf()
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return buf, err
		}
	}
}

// payloadSummary is what analyzePayload derives from a decompressed
// block payload — everything a sidecar entry records about the block,
// recomputed from the bytes alone.
type payloadSummary struct {
	rows int
	raw  int64
	ver  int
	shas map[string]int
	// zone is the payload's recomputed zone map: followers never trust
	// wire metadata, and the zone isn't even on the wire — recomputing
	// here is what keeps leader and follower sidecars byte-identical.
	zone blockZone
}

// meta is the sidecar entry for a member holding this payload at
// [start, end).
func (sum *payloadSummary) meta(start, end int64) blockMeta {
	bm := blockMeta{Offset: start, Len: end - start, Rows: sum.rows, Raw: sum.raw}
	if sum.ver != FormatV1 {
		bm.Ver = sum.ver
	}
	bm.setZone(sum.zone)
	return bm
}

// analyzePayload is the one payload summariser: it decodes a block
// payload far enough to know its version, row count, JSONL-equivalent
// raw bytes, per-sample row counts, and zone map. v1 rows are decoded
// in full (not just the hash), so malformed rows surface as errors on
// every path that rebuilds or checks an index. A payload in a format
// newer than maxVer is a *FormatError naming path.
func analyzePayload(path string, payload []byte, maxVer int) (payloadSummary, error) {
	sum := payloadSummary{shas: make(map[string]int)}
	sum.ver = sniffVersion(payload)
	switch {
	case sum.ver == FormatV1:
		var row scanRow
		var acc zoneAcc
		if err := forEachLine(payload, func(line []byte) error {
			if err := decodeScanRow(line, &row); err != nil {
				return err
			}
			sum.rows++
			sum.raw += int64(len(line))
			sum.shas[row.SHA]++
			acc.row(&row)
			return nil
		}); err != nil {
			return sum, err
		}
		sum.zone = acc.z
	case sum.ver <= maxVer:
		cb, err := parseColumnarBlock(payload, wantAllDicts)
		if err != nil {
			return sum, err
		}
		sum.rows, sum.raw = cb.rows, cb.raw
		for _, sha := range cb.sha {
			sum.shas[sha]++
		}
		if sum.zone, err = zoneOfColBlock(cb); err != nil {
			return sum, err
		}
	default:
		return sum, &FormatError{Path: path, Version: sum.ver, Max: maxVer}
	}
	return sum, nil
}

// indexPartition rebuilds a partition's block index from its bytes
// alone: the member walker feeding analyzePayload. Works on any valid
// partition — block-written files recover their original block
// boundaries (and versions); pre-index files yield one block per
// historical flush. The returns mirror walkMembers: the index covers
// the members up to goodEnd, and torn says why the walk stopped there
// (a member in a format newer than maxVer stops it with *FormatError).
// Open, writers, and Reindex are strict — any torn is their error;
// RepairDir truncates at goodEnd instead.
func indexPartition(path string, maxVer int) (ix *partIndex, goodEnd int64, torn, err error) {
	ix = newPartIndex()
	goodEnd, torn, err = walkMembers(path, func(start, end int64, payload []byte) error {
		sum, err := analyzePayload(path, payload, maxVer)
		switch {
		case errors.Is(err, ErrUnsupportedFormat):
			return err
		case err != nil:
			return fmt.Errorf("store: %s: member @%d: %w", path, start, err)
		}
		if sum.rows > 0 || end > start {
			ix.appendBlock(sum.meta(start, end), sum.shas)
		}
		return nil
	})
	return ix, goodEnd, torn, err
}

// readBlockPayloadAt decompresses the member bm locates into a pooled
// block buffer (release with bufpool.PutBlockBuf): the one way every
// reader gets a block's bytes. A block tagged with a format newer than
// maxVer is a *FormatError naming path, before any byte is read.
func readBlockPayloadAt(path string, bm blockMeta, maxVer int) ([]byte, error) {
	if ver := blockVer(bm); ver > maxVer {
		return nil, &FormatError{Path: path, Version: ver, Max: maxVer}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	sec := io.NewSectionReader(f, bm.Offset, bm.Len)
	br := bufpool.GetBufioReader(sec)
	defer bufpool.PutBufioReader(br)
	zr, err := bufpool.GetGzipReader(br)
	if err != nil {
		return nil, fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	defer bufpool.PutGzipReader(zr)
	defer zr.Close()
	buf, err := readAllPooled(zr)
	if err != nil {
		bufpool.PutBlockBuf(buf)
		return nil, fmt.Errorf("store: %s: block @%d: %w", path, bm.Offset, err)
	}
	return buf, nil
}
