package store

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
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
// still pending in the month's open block, read from the writer's
// memory through the month's view. So a Get after Put sees the written
// rows, and no Get seals, compresses or writes anything.
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

// getUncached assembles a history: a SHA-predicate plan over views of
// the sample's months on the one planner and worker pool, in which a
// month's pending rows are its last block.
func (s *Store) getUncached(sha string) (*report.History, error) {
	sh := s.shardFor(sha)
	sh.mu.Lock()
	meta, ok := sh.samples[sha]
	months := sortedKeys(sh.months[sha])
	sh.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSample, sha)
	}
	views, err := s.views(months, sha)
	if err != nil {
		return nil, err
	}
	if err := s.step("get-view"); err != nil {
		return nil, err
	}
	s.m.indexedMonths.Add(int64(len(months)))
	jobs := s.planBlocks(views, func(v *monthView, _ []blockMeta) func(int) bool {
		seqs := v.postingSeqsFor([]string{sha})
		return func(seq int) bool { return seqs[seq] }
	})
	sealed := 0
	for _, j := range jobs {
		if j.mem == nil {
			sealed++
		}
	}
	// Pending rows are no block decode, and need no worker of their own.
	s.m.blockDecodes.Add(int64(sealed))
	// The blocks run through Scan's execute and merge, not its
	// accounting: a Get moves no store_scan_* counter.
	agg := historyAgg{sha: sha}
	cq := compileQuery(Query{SHAs: []string{sha}, Cols: ColAll &^ ColSHA})
	if _, err := s.runScan(jobs, cq, min(max(sealed, 1), runtime.GOMAXPROCS(0)), &agg); err != nil {
		return nil, err
	}

	// Storage order: months ascending, blocks in file order, a month's
	// pending rows last — the order a cut would have given them.
	h := &report.History{Meta: meta, Reports: agg.reports}
	// Stable sort: reports with equal timestamps keep their storage
	// order, so repeated Gets — and Gets against stores built at
	// different worker counts, which are byte-identical — always return
	// the identical sequence.
	sort.SliceStable(h.Reports, func(i, j int) bool {
		return h.Reports[i].AnalysisDate.Before(h.Reports[j].AnalysisDate)
	})
	return h, nil
}

// historyAgg is Get's kernel: each job's rows become reports, merged
// in job order. The query leaves the SHA unprojected, the one value
// every row shares, so the kernel fills it in.
type historyAgg struct {
	sha     string
	reports []*report.ScanReport
}

type historyPartial historyAgg

func (a *historyAgg) NewPartial() Partial { return &historyPartial{sha: a.sha} }

func (a *historyAgg) Merge(p Partial) error {
	a.reports = append(a.reports, p.(*historyPartial).reports...)
	return nil
}

func (p *historyPartial) Row(rv *RowView) error {
	r := rv.toReport()
	r.SHA256 = p.sha
	p.reports = append(p.reports, r)
	return nil
}

// monthView is one month as a read sees it: the sealed blocks below
// the horizon and, while the month's writer is open, the rows it still
// holds pending as one trailing in-memory block — the block a Flush
// would cut, at the position it would take. Every reader plans over
// views, so no read cuts, seals or flushes anything.
type monthView struct {
	monthIndex
	// horizon is the month's block count when the view was taken: every
	// row written before then is in a block below it or in mem, and a
	// block at or past it holds only rows written later. MaxInt when
	// the month had no open writer, so every block counts.
	horizon int
	// mem is the pending rows' JSONL copy, nil when there are none;
	// memMeta is its block entry, built from the writer's accounting,
	// and memShas its per-sample row counts, the postings a cut gives it.
	mem     []byte
	memMeta blockMeta
	memShas map[string]int
}

// views takes the view of every indexed month in months (nil means
// every month), in order. A non-empty sha restricts each in-memory
// block to that sample's rows.
func (s *Store) views(months []string, sha string) ([]monthView, error) {
	mis := s.monthIndexes(months)
	out := make([]monthView, len(mis))
	for i, mi := range mis {
		var err error
		if out[i], err = s.view(mi, sha); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// view is a read's one critical section with a month's writer. It
// commits the compressed front of the queue and waits, with the lock
// released, for the queued blocks still compressing that hold sha
// (every queued block when sha is empty) — a commit of earlier cuts,
// never a new one. It then reads the horizon and copies the pending
// rows as the month's in-memory block: all of them, zone and postings
// included, or with sha set only that sample's lines, which is all a
// Get reads. A month without an open writer has every row sealed.
func (s *Store) view(mi monthIndex, sha string) (monthView, error) {
	v := monthView{monthIndex: mi, horizon: math.MaxInt}
	s.wmu.Lock()
	w := s.writers[mi.month]
	s.wmu.Unlock()
	if w == nil {
		return v, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	holds := func(pb *pendingBlock) bool { return sha == "" || pb.shas[sha] > 0 }
	for !w.closed && slices.ContainsFunc(w.queue, holds) {
		// Commit the compressed front of the queue, waiting for none.
		if err := w.commitLocked(len(w.queue)); err != nil {
			return v, err
		}
		if !slices.ContainsFunc(w.queue, holds) {
			break
		}
		// The oldest block is still compressing: wait for it with the
		// lock released, so that no Put waits behind a gzip.
		oldest := w.queue[0]
		w.mu.Unlock()
		err := s.step("view-wait")
		<-oldest.done
		w.mu.Lock()
		if err != nil {
			return v, err
		}
	}
	// A writer closed by a concurrent Flush already has its rows on disk.
	if w.closed {
		return v, nil
	}
	v.ix, v.horizon = w.idx, w.idx.numBlocks()
	v.memMeta = blockMeta{Offset: w.base + w.counter.n}
	switch {
	case w.pendingRows == 0:
	case sha == "":
		v.mem = bytes.Clone(w.pendingBuf)
		v.memShas = maps.Clone(w.pendingShas)
		v.memMeta.Rows, v.memMeta.Raw = w.pendingRows, w.pendingRaw
		v.memMeta.setZone(w.col.zone())
	case w.pendingShas[sha] > 0:
		v.mem = appendLinesOf(nil, w.pendingBuf, sha)
		v.memShas = map[string]int{sha: w.pendingShas[sha]}
		v.memMeta.Rows = w.pendingShas[sha]
	}
	return v, nil
}

// appendLinesOf appends the JSONL lines of payload that may be sha's
// rows (every line the rowSHA peek does not rule out) to dst.
func appendLinesOf(dst, payload []byte, sha string) []byte {
	forEachLine(payload, func(line []byte) error {
		if got, ok := rowSHA(line); !ok || string(got) == sha {
			dst = append(append(slices.Grow(dst, len(line)+1), line...), '\n')
		}
		return nil
	})
	return dst
}

// postingSeqsFor is the view's block set holding any of shas: the
// sealed blocks below the horizon the postings name, and the in-memory
// block, at the horizon, when it holds one of them.
func (v *monthView) postingSeqsFor(shas []string) map[int]bool {
	seqs := make(map[int]bool)
	v.ix.mu.RLock()
	for _, sha := range shas {
		for _, id := range v.ix.postings[sha] {
			if id < v.horizon {
				seqs[id] = true
			}
		}
	}
	v.ix.mu.RUnlock()
	if v.mem != nil && slices.ContainsFunc(shas, func(sha string) bool { return v.memShas[sha] > 0 }) {
		seqs[v.horizon] = true
	}
	return seqs
}

// blockJob is one block of one month — the unit every pass (Get, Scan,
// Verify's index check) schedules: a sealed member of the partition,
// or, with mem set, the month's in-memory block of pending rows.
type blockJob struct {
	month string
	path  string
	seq   int
	bm    blockMeta
	mem   []byte
}

// payload returns the job's block payload: the in-memory block's
// JSONL copy, or the member decompressed into a pooled buffer. Hand it
// back with release.
func (j *blockJob) payload(maxVer int) ([]byte, error) {
	if j.mem != nil {
		return j.mem, nil
	}
	return readBlockPayloadAt(j.path, j.bm, maxVer)
}

func (j *blockJob) release(payload []byte) {
	if j.mem == nil {
		bufpool.PutBlockBuf(payload)
	}
}

// planBlocks is the one planner behind every block reader. It walks
// the views in order (month ascending), snapshots each month's block
// list below the view's horizon — taken after the view, so it holds
// every block below it — appends the view's in-memory block, and
// schedules the blocks pick keeps, in block-sequence order.
// pick runs once per month — where a pass does its per-month work
// (posting lookups, tiling checks) — and returns that month's
// per-block filter.
func (s *Store) planBlocks(views []monthView, pick func(v *monthView, blocks []blockMeta) (keep func(seq int) bool)) []blockJob {
	var jobs []blockJob
	for i := range views {
		v := &views[i]
		blocks := v.ix.blocksBelow(v.horizon)
		if v.mem != nil {
			blocks = append(blocks, v.memMeta)
		}
		keep := pick(v, blocks)
		path := s.partPath(v.month)
		for seq, bm := range blocks {
			if keep(seq) {
				j := blockJob{month: v.month, path: path, seq: seq, bm: bm}
				if seq == v.horizon {
					j.mem = v.mem
				}
				jobs = append(jobs, j)
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

// IterAll streams every report in the store through fn: a
// full-projection Scan whose kernel hands each row to fn as a report
// the moment it decodes, rows pending in open writers included
// (workers <= 0 uses GOMAXPROCS; 1 iterates serially in storage
// order). With workers > 1, fn is called from multiple goroutines
// concurrently and no ordering is guaranteed — fn must be safe for
// concurrent use. The first error stops the pass.
func (s *Store) IterAll(workers int, fn func(month string, r *report.ScanReport) error) error {
	_, err := s.Scan(Query{Cols: ColAll, Workers: workers}, rowFunc(func(rv *RowView) error {
		return fn(rv.Month, rv.toReport())
	}))
	return err
}

// rowFunc is a kernel that hands every row to a function as it
// decodes: each partial is the function itself, with nothing to merge.
type rowFunc func(rv *RowView) error

func (f rowFunc) NewPartial() Partial { return f }

func (f rowFunc) Merge(Partial) error { return nil }

func (f rowFunc) Row(rv *RowView) error { return f(rv) }

// toReport materializes the row as a new report.
func (rv *RowView) toReport() *report.ScanReport {
	return &report.ScanReport{
		SHA256:       rv.SHA,
		FileType:     rv.FT,
		AnalysisDate: fromUnix(rv.At),
		AVRank:       rv.Rank,
		EnginesTotal: rv.Tot,
		Results:      rv.appendResults(make([]report.EngineResult, 0, len(rv.Res))),
	}
}

// appendResults appends the row's engine results to res.
func (rv *RowView) appendResults(res []report.EngineResult) []report.EngineResult {
	for i := range rv.Res {
		e := &rv.Res[i]
		res = append(res, report.EngineResult{Engine: e.Eng, Verdict: report.Verdict(e.Ver), SignatureVersion: e.Sig, Label: e.Lab})
	}
	return res
}

// TypeStats is the per-file-type breakdown of stored data — the Table
// 3 view over a collected store rather than a generated population.
type TypeStats struct {
	Samples int
	Reports int
}

// StatsByType tallies stored samples and scan rows per file type
// using all cores; rows pending in open writers are counted, through
// the scan's views, and nothing is flushed.
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

// Verify re-reads every partition, and the rows pending in open
// writers, on all cores, checking that each row parses, validates, and
// belongs to an indexed sample, and that every sidecar block entry
// agrees with its partition payload. It writes nothing. It returns the
// number of rows checked.
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
		Results:      rv.appendResults(p.r.Results[:0]),
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
// (which mirrors the sidecar) against the partition payloads: the
// sealed blocks of each month's view must tile the file — exactly, or,
// while a writer is open and may commit blocks past the view's
// horizon, up to at most its size — and each block's claimed rows, raw
// bytes, version, zone map, and posting membership must match what its
// payload actually decodes to. This is what lets `vtstore verify`
// vouch for a replica: a follower whose sidecars pass this and whose
// partitions hash equal to the leader's is a true replica.
func (s *Store) verifyBlockIndexes(workers int) error {
	views, err := s.views(nil, "")
	if err != nil {
		return err
	}
	// want[i] is the sample set job i's postings claim for its block;
	// planErr is the first month whose index fails the structural checks.
	var (
		want    []map[string]bool
		planErr error
	)
	checkMonth := func(v *monthView, blocks []blockMeta) error {
		var size int64
		if fi, err := os.Stat(s.partPath(v.month)); err == nil {
			size = fi.Size()
		} else if !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		var off int64
		for seq, bm := range blocks {
			if bm.Offset != off || bm.Len <= 0 {
				return fmt.Errorf("%w: %s block %d at offset %d, expected %d", ErrIndexMismatch, v.month, seq, bm.Offset, off)
			}
			off += bm.Len
		}
		if off != size && (v.horizon == math.MaxInt || off > size) {
			return fmt.Errorf("%w: %s index covers %d bytes, partition holds %d", ErrIndexMismatch, v.month, off, size)
		}
		named := make([]map[string]bool, len(blocks))
		for sha, ids := range v.ix.snapshotPostings() {
			for _, id := range ids {
				if id >= v.horizon {
					continue // a block committed after the view
				}
				if id < 0 || id >= len(blocks) {
					return fmt.Errorf("%w: %s posting for %s names block %d of %d", ErrIndexMismatch, v.month, sha, id, len(blocks))
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
	// The in-memory block has no payload on disk to check; Verify's row
	// pass has read its rows.
	jobs := s.planBlocks(views, func(v *monthView, blocks []blockMeta) func(int) bool {
		sealed := blocks[:min(v.horizon, len(blocks))]
		if planErr == nil {
			planErr = checkMonth(v, sealed)
		}
		return func(seq int) bool { return planErr == nil && seq < len(sealed) }
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
