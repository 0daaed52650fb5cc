package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// Get returns the sample's full history: in each of its months, the
// rows of the sealed blocks the month's postings name, then its rows
// still pending in the month's open block, decoded from the writer's
// memory. So a Get after Put sees the written rows, and no Get seals,
// compresses or writes anything.
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

// getUncached assembles a history: a SHA-predicate plan over the
// sample's months on the one planner and worker pool, with each month's
// pending rows after its blocks.
func (s *Store) getUncached(sha string) (*report.History, error) {
	sh := s.shardFor(sha)
	sh.mu.Lock()
	meta, ok := sh.samples[sha]
	months := sortedKeys(sh.months[sha])
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSample, sha)
	}
	// Pending rows and horizons are fixed before the plan snapshots the
	// block lists, so every block below a horizon is in the snapshot.
	pending := make([][]*report.ScanReport, len(months))
	horizon := make(map[string]int, len(months))
	for i, month := range months {
		var err error
		if pending[i], horizon[month], err = s.pendingFor(month, sha); err != nil {
			return nil, err
		}
	}
	if err := s.step("get-view"); err != nil {
		return nil, err
	}
	s.m.indexedMonths.Add(int64(len(months)))
	jobs := s.planBlocks(months, func(mi monthIndex, _ []blockMeta) func(int) bool {
		seqs := mi.ix.postingSeqsFor([]string{sha})
		limit := horizon[mi.month]
		return func(seq int) bool { return seqs[seq] && seq < limit }
	})
	s.m.blockDecodes.Add(int64(len(jobs)))
	perJob := make([][]*report.ScanReport, len(jobs))
	if err := runJobs(0, len(jobs), func(i int) error {
		j := jobs[i]
		payload, err := readBlockPayloadAt(j.path, j.bm, s.maxFormat)
		if err != nil {
			return err
		}
		defer bufpool.PutBlockBuf(payload)
		if perJob[i], err = rowsFor(payload, blockVer(j.bm), sha); err != nil {
			return fmt.Errorf("store: %s: block @%d: %w", j.path, j.bm.Offset, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Storage order: months ascending, blocks in file order, then the
	// pending rows — the order a cut would have given them.
	h := &report.History{Meta: meta}
	next := 0
	for i, month := range months {
		for ; next < len(jobs) && jobs[next].month == month; next++ {
			h.Reports = append(h.Reports, perJob[next]...)
		}
		h.Reports = append(h.Reports, pending[i]...)
	}
	// Stable sort: reports with equal timestamps keep their storage
	// order, so repeated Gets — and Gets against stores built at
	// different worker counts, which are byte-identical — always return
	// the identical sequence.
	sort.SliceStable(h.Reports, func(i, j int) bool {
		return h.Reports[i].AnalysisDate.Before(h.Reports[j].AnalysisDate)
	})
	return h, nil
}

// pendingFor is Get's one critical section with the month's writer. It
// waits out queued blocks holding sha (a commit of earlier cuts, not a
// new one), decodes sha's rows from the open block's JSONL copy and
// reads the month's block count, the horizon: every row of sha written
// so far is then in those rows or in a block below the horizon, and a
// block at or past it holds only rows written later. A month without
// an open writer has every row sealed, and any block may be read.
func (s *Store) pendingFor(month, sha string) (rows []*report.ScanReport, horizon int, err error) {
	s.wmu.Lock()
	w := s.writers[month]
	s.wmu.Unlock()
	if w == nil {
		return nil, math.MaxInt, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	holds := func(pb *pendingBlock) bool { return pb.shas[sha] > 0 }
	for !w.closed && slices.ContainsFunc(w.queue, holds) {
		// Commit the compressed front of the queue, waiting for none.
		if err := w.commitLocked(len(w.queue)); err != nil {
			return nil, 0, err
		}
		if !slices.ContainsFunc(w.queue, holds) {
			break
		}
		// The oldest block is still compressing: wait for it with the
		// lock released, so that no Put waits behind a gzip.
		oldest := w.queue[0]
		w.mu.Unlock()
		err := s.step("get-wait")
		<-oldest.done
		w.mu.Lock()
		if err != nil {
			return nil, 0, err
		}
	}
	// A writer closed by a concurrent Flush already has its rows on disk.
	if w.closed {
		return nil, math.MaxInt, nil
	}
	if w.pendingShas[sha] > 0 {
		if rows, err = rowsFor(w.pendingBuf, FormatV1, sha); err != nil {
			return nil, 0, fmt.Errorf("store: %s pending block: %w", month, err)
		}
	}
	return rows, w.idx.numBlocks(), nil
}

// rowsFor decodes sha's rows out of one block payload in storage order:
// v1 lines through the line iterator, fully decoding only the rows the
// rowSHA peek does not rule out; v2 through columnarRowsFor.
func rowsFor(payload []byte, ver int, sha string) ([]*report.ScanReport, error) {
	if ver != FormatV1 {
		return columnarRowsFor(payload, sha)
	}
	var out []*report.ScanReport
	var row scanRow
	err := forEachLine(payload, func(line []byte) error {
		// A block holds many samples; skip full decodes for other
		// samples' rows by peeking at the leading "s" key (always first
		// in canonical encoder output).
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
	})
	return out, err
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

// planBlocks is the one planner behind every block reader. It walks
// the indexed months in storage order (month ascending; non-nil months
// restricts the walk to those), snapshots each month's block list, and
// schedules the blocks pick keeps, in block-sequence order.
// pick runs once per month — where a pass does its per-month work
// (posting lookups, tiling checks) — and returns that month's
// per-block filter.
func (s *Store) planBlocks(months []string, pick func(mi monthIndex, blocks []blockMeta) (keep func(seq int) bool)) []blockJob {
	var jobs []blockJob
	for _, mi := range s.monthIndexes(months) {
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
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				if err := run(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(int64(n)) // no further job starts
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// IterReports streams every report in a month partition in storage
// order.
func (s *Store) IterReports(month string, fn func(*report.ScanReport) error) error {
	return s.iterBlocks([]string{month}, 1, func(_ string, r *report.ScanReport) error { return fn(r) })
}

// IterAll streams every report in the store through fn, fanning
// partition blocks across a pool of workers (workers <= 0 uses
// GOMAXPROCS; 1 iterates serially in storage order). It flushes
// first, like IterReports. With workers > 1, fn is called from
// multiple goroutines concurrently and no ordering is guaranteed —
// fn must be safe for concurrent use. The first error stops the
// pass.
func (s *Store) IterAll(workers int, fn func(month string, r *report.ScanReport) error) error {
	return s.iterBlocks(nil, workers, fn)
}

// iterBlocks flushes, plans every non-empty block (of the given
// months, or of the whole store when months is nil), and materializes
// each block's rows as reports for fn on the worker pool.
func (s *Store) iterBlocks(months []string, workers int, fn func(month string, r *report.ScanReport) error) error {
	if err := s.Flush(); err != nil {
		return err
	}
	jobs := s.planBlocks(months, func(_ monthIndex, blocks []blockMeta) func(int) bool {
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
	jobs := s.planBlocks(nil, func(mi monthIndex, blocks []blockMeta) func(int) bool {
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
		payload, err := readBlockPayloadAt(j.path, j.bm, s.maxFormat)
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
