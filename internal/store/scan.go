// Pushdown scan engine: zone-pruned, column-projected aggregation.
//
// Scan is the store's whole-dataset query path — the engine behind
// IterAll, StatsByType, Verify's row pass, time-bounded vtquery reads,
// and the experiments' store-backed dynamics sweeps — and Get is its
// SHA-predicate case: the same block jobs, per-block decode, and
// execute/merge (runScan), over a postings plan and without Scan's
// accounting. Rather than
// gunzip every block and materialize every row as a report.ScanReport,
// Scan works strictly top-down, skipping work at three levels:
//
//  1. Block pruning. Before touching a partition, each sidecar block
//     entry is tested against the query: empty blocks, blocks whose
//     posting list lacks every requested sample, blocks whose zone
//     time bounds miss the time range, blocks whose
//     file-type/engine/label fingerprints cannot intersect the
//     predicate sets, and blocks with zero malicious rows under
//     MaliciousOnly are all skipped without a single byte of
//     decompression. Fingerprint pruning is one-sided: a false
//     positive costs a scan, never a wrong answer.
//  2. Column projection. A scanned v2 block decodes only the column
//     segments the query's predicates and projection actually touch;
//     the rest are skipped whole (their lengths are in the payload),
//     and rows failing a predicate advance the remaining cursors
//     varint-wise without materializing anything — rows failing on
//     SHA or time only once a later row passes. Dictionaries decode
//     up front, or, under a SHA predicate, entry by entry on first
//     use (scanpush.go).
//  3. Kernel aggregation. Matching rows are fed to a per-job Partial
//     as a reused RowView — no ScanReport, no per-row allocation —
//     and partials merge in deterministic job order (month ascending,
//     block sequence ascending), so results are independent of worker
//     count and scheduling.
//
// v1 blocks — and the in-memory block of an open writer's pending
// rows, which a month's view appends — take a full row decode with the
// same row-level filter, so mixed-format stores and live writers stay
// correct: FuzzScanPushdownDifferential compares Scan against a naive
// full-decode filter over random v1/v2/mixed stores, and a scan beside
// open writers against the same scan after a Flush. Every month has a
// fully zoned block index from Open on (index.go), so the planner has
// no other case.
//
// Accounting identity (checked by the metrics invariant suite): every
// sidecar block a Scan considers is either pruned (for exactly one
// reason) or scanned — store_blocks_pruned_total summed over reasons
// plus store_scan_blocks_scanned_total equals store_scan_blocks_total.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vtdynamics/internal/report"
)

// ColSet selects the columns a Query projects into RowView. Predicate
// columns are decoded as needed regardless; projection only controls
// what the kernel sees.
type ColSet uint16

const (
	ColSHA ColSet = 1 << iota
	ColTime
	ColFT
	ColRank
	ColTot
	ColResults

	ColAll = ColSHA | ColTime | ColFT | ColRank | ColTot | ColResults
)

// Query describes one pushdown scan: row predicates (ANDed across
// fields, ORed within a set) plus a column projection.
type Query struct {
	// Since/Until bound the row's analysis timestamp, inclusive, in
	// unix seconds. Zero means unbounded on that side (rows with a
	// zero timestamp therefore match only time-unbounded-below
	// queries, which is exactly the "no analysis date" semantics the
	// row codec preserves).
	Since, Until int64
	// FileTypes/Engines/Labels keep rows whose file type is in the
	// set / that carry at least one result from an engine in the set /
	// at least one non-empty label in the set. Empty slices match all.
	FileTypes []string
	Engines   []string
	Labels    []string
	// SHAs restricts the scan to the given samples (empty = all).
	SHAs []string
	// MaliciousOnly keeps rows with at least one Malicious result.
	MaliciousOnly bool
	// Cols is the projection; unprojected RowView fields stay zero.
	Cols ColSet
	// Workers is the block-scan parallelism (<= 0 uses GOMAXPROCS).
	// The worker count never changes results, only wall time.
	Workers int
}

// ResView is one engine result as seen by a kernel. Eng and Lab are
// interned strings; the backing ResView slice is reused between rows.
type ResView struct {
	Eng string
	Lab string
	Sig int
	Ver int8
}

// RowView is the kernel-facing row: only the projected columns are
// populated, everything else keeps its zero value. The view and its
// Res slice are reused between rows — kernels must copy what they
// keep (the strings themselves are safe to retain; interned or
// dict-owned, they are immutable).
type RowView struct {
	Month string
	SHA   string
	At    int64
	FT    string
	Rank  int
	Tot   int
	Res   []ResView
}

// Partial accumulates one job's (one block's) rows. Row is called
// from a single goroutine per partial; distinct partials run
// concurrently.
type Partial interface {
	Row(rv *RowView) error
}

// Agg is an aggregation kernel: it mints fresh partial states for the
// workers and folds them back in deterministic job order.
type Agg interface {
	NewPartial() Partial
	Merge(p Partial) error
}

// Pruning reasons, in the order they are tested (each pruned block is
// counted under exactly one).
const (
	PruneEmpty    = "empty"
	PruneSHA      = "sha"
	PruneTime     = "time"
	PruneFileType = "filetype"
	PruneEngine   = "engine"
	PruneLabel    = "label"
	PruneVerdict  = "verdict"
)

// pruneReasons lists every reason once, for stats/metric enumeration.
var pruneReasons = []string{
	PruneEmpty, PruneSHA, PruneTime, PruneFileType, PruneEngine, PruneLabel, PruneVerdict,
}

// ScanStats reports what one Scan call did — the observability half
// of the pushdown contract.
type ScanStats struct {
	// Blocks counts sidecar block entries considered; every one is
	// either in Pruned (under one reason) or in Scanned.
	Blocks  int
	Scanned int
	Pruned  map[string]int
	// Rows is the number of matching rows fed to the kernel.
	Rows int64
	// CompressedBytes is the gzip bytes actually read (and therefore
	// decompressed) — pruned blocks contribute nothing.
	CompressedBytes int64
	// ColumnsSkipped counts column segments of scanned v2 blocks the
	// query never touched.
	ColumnsSkipped int64
}

// PrunedTotal sums Pruned across reasons.
func (st ScanStats) PrunedTotal() int {
	n := 0
	for _, v := range st.Pruned {
		n += v
	}
	return n
}

// compiledQuery is a Query with its predicate sets resolved into
// lookup maps and zone fingerprint masks.
type compiledQuery struct {
	q                             Query
	shaSet, ftSet, engSet, labSet map[string]bool
	ftMask, engMask, labMask      uint64

	// Per-segment needs: a segment is touched iff a predicate or the
	// projection requires it.
	needSHA, needTime, needFT, needRank, needTot bool
	needNRes, needRes, needVerdict               bool
}

func toSet(vals []string) map[string]bool {
	if len(vals) == 0 {
		return nil
	}
	m := make(map[string]bool, len(vals))
	for _, v := range vals {
		m[v] = true
	}
	return m
}

func compileQuery(q Query) *compiledQuery {
	cq := &compiledQuery{
		q:      q,
		shaSet: toSet(q.SHAs),
		ftSet:  toSet(q.FileTypes),
		engSet: toSet(q.Engines),
		labSet: toSet(q.Labels),
	}
	cq.ftMask = zoneBits(q.FileTypes)
	cq.engMask = zoneBits(q.Engines)
	cq.labMask = zoneBits(q.Labels)

	proj := q.Cols
	cq.needSHA = proj&ColSHA != 0 || cq.shaSet != nil
	cq.needTime = proj&ColTime != 0 || q.Since != 0 || q.Until != 0
	cq.needFT = proj&ColFT != 0 || cq.ftSet != nil
	cq.needRank = proj&ColRank != 0
	cq.needTot = proj&ColTot != 0
	cq.needRes = proj&ColResults != 0 || cq.engSet != nil || cq.labSet != nil
	cq.needVerdict = proj&ColResults != 0 || q.MaliciousOnly
	cq.needNRes = cq.needRes || cq.needVerdict
	return cq
}

// touchedSegments counts how many of the 8 column segments a v2 block
// scan reads under this query.
func (cq *compiledQuery) touchedSegments() int {
	n := 0
	for _, need := range []bool{
		cq.needSHA, cq.needTime, cq.needFT, cq.needRank,
		cq.needTot, cq.needNRes, cq.needVerdict, cq.needRes,
	} {
		if need {
			n++
		}
	}
	return n
}

// matchScanRow is the row-level filter over a fully decoded row — the
// v1 path, and the reference semantics the v2 pushdown loop must agree
// with (differential fuzzer).
func (cq *compiledQuery) matchScanRow(row *scanRow) bool {
	if cq.shaSet != nil && !cq.shaSet[row.SHA] {
		return false
	}
	if cq.q.Since != 0 && row.At < cq.q.Since {
		return false
	}
	if cq.q.Until != 0 && row.At > cq.q.Until {
		return false
	}
	if cq.ftSet != nil && !cq.ftSet[row.FT] {
		return false
	}
	if cq.engSet != nil || cq.labSet != nil || cq.q.MaliciousOnly {
		engHit := cq.engSet == nil
		labHit := cq.labSet == nil
		malHit := !cq.q.MaliciousOnly
		for i := range row.Res {
			rr := &row.Res[i]
			if !engHit && cq.engSet[rr.E] {
				engHit = true
			}
			if !labHit && rr.L != "" && cq.labSet[rr.L] {
				labHit = true
			}
			if !malHit && rr.V == int8(report.Malicious) {
				malHit = true
			}
			if engHit && labHit && malHit {
				break
			}
		}
		if !engHit || !labHit || !malHit {
			return false
		}
	}
	return true
}

// prunesBlock decides whether one sidecar entry can be skipped,
// returning the reason ("" = must scan). shaAllowed is the
// posting-derived block set (nil = no SHA predicate).
func (cq *compiledQuery) prunesBlock(bm *blockMeta, seq int, shaAllowed map[int]bool) string {
	if bm.Rows == 0 {
		return PruneEmpty
	}
	if shaAllowed != nil && !shaAllowed[seq] {
		return PruneSHA
	}
	if cq.q.Since != 0 && bm.TMax < cq.q.Since {
		return PruneTime
	}
	if cq.q.Until != 0 && bm.TMin > cq.q.Until {
		return PruneTime
	}
	if cq.ftMask != 0 && bm.FTB&cq.ftMask == 0 {
		return PruneFileType
	}
	if cq.engMask != 0 && bm.EngB&cq.engMask == 0 {
		return PruneEngine
	}
	if cq.labMask != 0 && bm.LabB&cq.labMask == 0 {
		return PruneLabel
	}
	if cq.q.MaliciousOnly && bm.Mal == 0 {
		return PruneVerdict
	}
	return ""
}

// Scan runs one pushdown aggregation over the store: plan (prune
// blocks via sidecar zone maps), execute (decode surviving blocks
// with column projection on a worker pool), merge (fold partials in
// deterministic job order). It plans over each month's view, so rows
// pending in an open writer are scanned as the month's last block and
// nothing is flushed.
func (s *Store) Scan(q Query, agg Agg) (ScanStats, error) {
	stats := ScanStats{Pruned: make(map[string]int, len(pruneReasons))}
	views, err := s.views(nil, "")
	if err != nil {
		return stats, err
	}
	cq := compileQuery(q)
	skippedPerBlock := int64(numColSegs - cq.touchedSegments())

	// Plan: walk every block entry, prune or schedule.
	jobs := s.planBlocks(views, func(v *monthView, blocks []blockMeta) func(int) bool {
		var shaAllowed map[int]bool
		if cq.shaSet != nil {
			shaAllowed = v.postingSeqsFor(q.SHAs)
		}
		return func(seq int) bool {
			bm := &blocks[seq]
			stats.Blocks++
			if reason := cq.prunesBlock(bm, seq, shaAllowed); reason != "" {
				stats.Pruned[reason]++
				return false
			}
			stats.Scanned++
			stats.CompressedBytes += bm.Len
			if blockVer(*bm) != FormatV1 {
				stats.ColumnsSkipped += skippedPerBlock
			}
			return true
		}
	})

	stats.Rows, err = s.runScan(jobs, cq, q.Workers, agg)
	s.recordScan(stats)
	return stats, err
}

// runScan is the execute and merge behind Scan and Get: one partial
// per job, workers pull jobs, and the partials fold in job order —
// month ascending, block sequence ascending — so results are
// independent of the worker count. It returns the rows fed.
func (s *Store) runScan(jobs []blockJob, cq *compiledQuery, workers int, agg Agg) (int64, error) {
	partials := make([]Partial, len(jobs))
	var rows atomic.Int64
	err := runJobs(workers, len(jobs), func(i int) error {
		pt := agg.NewPartial()
		n, err := s.runScanJob(jobs[i], cq, pt)
		if err != nil {
			return err
		}
		partials[i] = pt
		rows.Add(n)
		return nil
	})
	if err != nil {
		return rows.Load(), err
	}
	for _, pt := range partials {
		if err := agg.Merge(pt); err != nil {
			return rows.Load(), err
		}
	}
	return rows.Load(), nil
}

// recordScan folds one call's accounting into the store metrics.
func (s *Store) recordScan(st ScanStats) {
	m := s.m
	m.scanCalls.Inc()
	m.scanBlocks.Add(int64(st.Blocks))
	m.scanScanned.Add(int64(st.Scanned))
	m.scanRows.Add(st.Rows)
	m.colsSkipped.Add(st.ColumnsSkipped)
	for reason, n := range st.Pruned {
		if c := m.pruned[reason]; c != nil {
			c.Add(int64(n))
		}
	}
}

// runScanJob feeds one block's matching rows into pt, returning how
// many matched: v1 payloads — older members and the in-memory block —
// by full row decode and the row-level filter, v2 by the pushdown loop.
func (s *Store) runScanJob(j blockJob, cq *compiledQuery, pt Partial) (int64, error) {
	payload, err := j.payload(s.maxFormat)
	if err != nil {
		return 0, err
	}
	defer j.release(payload)
	var n int64
	if blockVer(j.bm) == FormatV1 {
		rf := rowFeederPool.Get().(*rowFeeder)
		rf.cq, rf.pt, rf.rows, rf.rv = cq, pt, 0, RowView{Month: j.month}
		err = forEachLine(payload, rf.line)
		n = rf.rows
		rf.cq, rf.pt = nil, nil
		rowFeederPool.Put(rf)
	} else {
		n, err = scanColPushdown(payload, cq, j.month, pt)
	}
	if err != nil {
		return n, fmt.Errorf("store: %s: block @%d: %w", j.path, j.bm.Offset, err)
	}
	return n, nil
}

// rowFeeder adapts v1 lines to the kernel: decode, filter, project
// into a reused RowView, feed. Feeders are pooled, so a v1 block
// reuses the row and result buffers of earlier ones.
type rowFeeder struct {
	cq   *compiledQuery
	pt   Partial
	row  scanRow
	rv   RowView
	res  []ResView
	rows int64
}

var rowFeederPool = sync.Pool{New: func() any { return new(rowFeeder) }}

func (rf *rowFeeder) line(line []byte) error {
	// Under a SHA predicate most lines are other samples': peek at the
	// leading "s" key (always first in canonical encoder output) before
	// a full decode.
	if rf.cq.shaSet != nil {
		if sha, ok := rowSHA(line); ok && !rf.cq.shaSet[string(sha)] {
			return nil
		}
	}
	row := &rf.row
	if err := decodeScanRow(line, row); err != nil {
		return err
	}
	if !rf.cq.matchScanRow(row) {
		return nil
	}
	proj := rf.cq.q.Cols
	if proj&ColSHA != 0 {
		rf.rv.SHA = row.SHA
	}
	if proj&ColTime != 0 {
		rf.rv.At = row.At
	}
	if proj&ColFT != 0 {
		rf.rv.FT = row.FT
	}
	if proj&ColRank != 0 {
		rf.rv.Rank = row.Rank
	}
	if proj&ColTot != 0 {
		rf.rv.Tot = row.Tot
	}
	if proj&ColResults != 0 {
		rf.res = rf.res[:0]
		for i := range row.Res {
			rr := &row.Res[i]
			rf.res = append(rf.res, ResView{Eng: rr.E, Lab: rr.L, Sig: rr.S, Ver: rr.V})
		}
		rf.rv.Res = rf.res
	}
	rf.rows++
	return rf.pt.Row(&rf.rv)
}
