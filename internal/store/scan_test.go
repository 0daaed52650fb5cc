package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/report"
)

// scanVocab is the value pool the scan-test generator draws from —
// small enough that predicates hit and miss both ways.
var (
	scanFTs  = []string{"Win32 EXE", "PDF", "Android", "ELF", ""}
	scanEngs = []string{"Avast", "BitDefender", "Kaspersky", "McAfee", "Sophos"}
	scanLabs = []string{"Trojan.Gen", "Adware.X", "not-a-virus:HEUR", ""}
)

// genScanEnvelopes builds a deterministic varied dataset: n scans over
// nSHA samples, timestamps spread over ~3 months (plus the occasional
// zero timestamp, which files under the "0001-01" month), verdicts and
// labels mixed so every predicate has matches and misses.
func genScanEnvelopes(rng *rand.Rand, n, nSHA int) []report.Envelope {
	envs := make([]report.Envelope, n)
	for i := range envs {
		sha := fmt.Sprintf("scan%03d", rng.Intn(nSHA))
		var at time.Time
		if rng.Intn(16) > 0 { // occasionally: no analysis date
			at = t0.Add(time.Duration(rng.Intn(90*24)) * time.Hour)
		}
		nres := rng.Intn(4)
		results := make([]report.EngineResult, 0, nres)
		for j := 0; j < nres; j++ {
			results = append(results, report.EngineResult{
				Engine:           scanEngs[rng.Intn(len(scanEngs))],
				Verdict:          report.Verdict(rng.Intn(3) - 1),
				Label:            scanLabs[rng.Intn(len(scanLabs))],
				SignatureVersion: rng.Intn(100),
			})
		}
		ft := scanFTs[rng.Intn(len(scanFTs))]
		envs[i] = report.Envelope{
			Meta: report.SampleMeta{SHA256: sha, FileType: ft, Size: 1, TimesSubmitted: 1},
			Scan: report.ScanReport{
				SHA256:       sha,
				FileType:     ft,
				AnalysisDate: at,
				AVRank:       report.ComputeAVRank(results),
				EnginesTotal: report.CountActive(results),
				Results:      results,
			},
		}
	}
	return envs
}

// buildScanStore writes envs into a fresh store, flushing mid-stream
// so partitions hold several blocks.
func buildScanStore(t testing.TB, envs []report.Envelope, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, env := range envs {
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

// buildScanStoreV1 is buildScanStore in block format v1: the store's
// blocks are rewritten to v1 and, once a reopen has persisted the
// sidecars, opened again over them.
func buildScanStoreV1(t testing.TB, envs []report.Envelope, opts ...Option) *Store {
	t.Helper()
	s := buildScanStore(t, envs, opts...)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeV1Store(t, s.dir)
	reopen(t, s.dir)
	re, err := Open(s.dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// buildOpenScanStore writes envs into a fresh store and leaves its
// writers open: some rows pending, and, with a small block size, some
// cut blocks still queued for compression.
func buildOpenScanStore(t testing.TB, envs []report.Envelope, opts ...Option) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, env := range envs {
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
		if i%17 == 16 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// rowsAgg collects every fed row as a canonical line, in merge order —
// the comparison target for the differential tests.
type rowsAgg struct{ lines []string }

type rowsPartial struct{ lines []string }

func (p *rowsPartial) Row(rv *RowView) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%s|%d|%d", rv.Month, rv.SHA, rv.At, rv.FT, rv.Rank, rv.Tot)
	for _, r := range rv.Res {
		fmt.Fprintf(&b, "|%s,%s,%d,%d", r.Eng, r.Lab, r.Sig, r.Ver)
	}
	p.lines = append(p.lines, b.String())
	return nil
}

func (a *rowsAgg) NewPartial() Partial { return &rowsPartial{} }

func (a *rowsAgg) Merge(p Partial) error {
	a.lines = append(a.lines, p.(*rowsPartial).lines...)
	return nil
}

// naiveScanLines is the reference implementation: decode every row of
// every sealed block in full (decodeBlockRows, not the pushdown loop),
// apply the query predicates on the decoded row, and render the
// projected columns the same way rowsPartial does. The store must be
// flushed: the reference reads no pending rows.
func naiveScanLines(t testing.TB, s *Store, q Query) []string {
	t.Helper()
	s.wmu.Lock()
	open := len(s.writers)
	s.wmu.Unlock()
	if open != 0 {
		t.Fatalf("naive scan over %d open writers; flush first", open)
	}
	cq := compileQuery(q)
	var lines []string
	for _, mi := range s.monthIndexes(nil) {
		month := mi.month
		for _, bm := range mi.ix.snapshotBlocks() {
			err := decodeBlockRows(s.partPath(month), bm, func(row *scanRow) {
				if !cq.matchScanRow(row) {
					return
				}
				var b strings.Builder
				var sha, ft string
				var at int64
				var rank, tot int
				if q.Cols&ColSHA != 0 {
					sha = row.SHA
				}
				if q.Cols&ColTime != 0 {
					at = row.At
				}
				if q.Cols&ColFT != 0 {
					ft = row.FT
				}
				if q.Cols&ColRank != 0 {
					rank = row.Rank
				}
				if q.Cols&ColTot != 0 {
					tot = row.Tot
				}
				fmt.Fprintf(&b, "%s|%s|%d|%s|%d|%d", month, sha, at, ft, rank, tot)
				if q.Cols&ColResults != 0 {
					for _, rr := range row.Res {
						fmt.Fprintf(&b, "|%s,%s,%d,%d", rr.E, rr.L, rr.S, rr.V)
					}
				}
				lines = append(lines, b.String())
			})
			if err != nil {
				t.Fatalf("naive scan: %v", err)
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// checkScanAgainstNaive runs one query both ways and compares the
// projected rows plus the stats identity.
func checkScanAgainstNaive(t testing.TB, s *Store, q Query) ScanStats {
	t.Helper()
	var got rowsAgg
	stats, err := s.Scan(q, &got)
	if err != nil {
		t.Fatalf("Scan(%+v): %v", q, err)
	}
	sort.Strings(got.lines)
	want := naiveScanLines(t, s, q)
	if !reflect.DeepEqual(got.lines, want) {
		t.Fatalf("Scan(%+v) diverges from naive filter:\n got %d rows %v\nwant %d rows %v",
			q, len(got.lines), head(got.lines), len(want), head(want))
	}
	if int64(len(got.lines)) != stats.Rows {
		t.Fatalf("stats.Rows = %d, kernel saw %d", stats.Rows, len(got.lines))
	}
	if stats.PrunedTotal()+stats.Scanned != stats.Blocks {
		t.Fatalf("pruning identity broken: pruned %d + scanned %d != blocks %d (%+v)",
			stats.PrunedTotal(), stats.Scanned, stats.Blocks, stats.Pruned)
	}
	return stats
}

// checkOpenEqualsFlushed runs q through every kernel at once over s
// while its writers are open, then flushes and runs it again. Kernel
// results, row order included, and the block accounting must agree:
// the pending rows are the block a Flush cuts, at the position it
// takes. Only CompressedBytes and ColumnsSkipped may differ, because
// the in-memory block is uncompressed JSONL.
func checkOpenEqualsFlushed(t testing.TB, s *Store, q Query) {
	t.Helper()
	run := func() (ScanStats, []any) {
		var (
			lines rowsAgg
			count CountAgg
			group GroupCountByType
			eng   EngineAgg
			span  FirstLastAgg
			flips FlipCountAgg
		)
		stats, err := s.Scan(q, &MultiAgg{Aggs: []Agg{&lines, &count, &group, &eng, &span, &flips}})
		if err != nil {
			t.Fatalf("Scan(%+v): %v", q, err)
		}
		return stats, []any{lines.lines, count, group.Counts, eng.Engines, span, flips}
	}
	s.wmu.Lock()
	open := len(s.writers)
	s.wmu.Unlock()
	if open == 0 {
		t.Fatal("store has no open writer")
	}
	openStats, openRes := run()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushedStats, flushedRes := run()
	for i := range openRes {
		if !reflect.DeepEqual(openRes[i], flushedRes[i]) {
			t.Fatalf("Scan(%+v) kernel %d: open writer gives %v, after Flush %v", q, i, openRes[i], flushedRes[i])
		}
	}
	if openStats.Blocks != flushedStats.Blocks || openStats.Scanned != flushedStats.Scanned ||
		openStats.Rows != flushedStats.Rows || !reflect.DeepEqual(openStats.Pruned, flushedStats.Pruned) {
		t.Fatalf("Scan(%+v) accounting: open writer %+v, after Flush %+v", q, openStats, flushedStats)
	}
}

// TestScanOpenWriterEqualsFlushed runs the query table over stores
// with open writers: each must scan exactly as it does once flushed.
func TestScanOpenWriterEqualsFlushed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	envs := genScanEnvelopes(rng, 160, 24)
	for _, q := range scanTestQueries() {
		s := buildOpenScanStore(t, envs, WithBlockSize(1<<10))
		checkOpenEqualsFlushed(t, s, q)
		checkScanAgainstNaive(t, s, q)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func head(lines []string) []string {
	if len(lines) > 4 {
		return lines[:4]
	}
	return lines
}

// scanTestQueries is the table both the unit test and the CLI-facing
// paths lean on: every predicate alone, combined, and with varying
// projections and worker counts.
func scanTestQueries() []Query {
	since := t0.Add(20 * 24 * time.Hour).Unix()
	until := t0.Add(55 * 24 * time.Hour).Unix()
	return []Query{
		{Cols: ColAll},
		{Cols: ColAll, Workers: 1},
		{Cols: ColFT},
		{Cols: ColSHA | ColTime},
		{Since: since, Cols: ColAll},
		{Until: until, Cols: ColAll},
		{Since: since, Until: until, Cols: ColTime},
		{FileTypes: []string{"PDF", "ELF"}, Cols: ColAll},
		{FileTypes: []string{"no-such-type"}, Cols: ColAll},
		{Engines: []string{"Kaspersky"}, Cols: ColAll},
		{Engines: []string{"NoSuchEngine"}, Cols: ColFT},
		{Labels: []string{"Adware.X"}, Cols: ColAll},
		{MaliciousOnly: true, Cols: ColAll},
		{MaliciousOnly: true, Cols: ColSHA},
		{SHAs: []string{"scan001", "scan007"}, Cols: ColAll},
		{SHAs: []string{"absent"}, Cols: ColAll},
		{Since: since, FileTypes: []string{"Win32 EXE"}, Engines: []string{"Avast"},
			Labels: []string{"Trojan.Gen"}, MaliciousOnly: true, Cols: ColAll, Workers: 3},
		{Cols: 0}, // pure count: no projection at all
	}
}

func TestScanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	envs := genScanEnvelopes(rng, 160, 24)
	for _, cfg := range []struct {
		name  string
		build func(testing.TB, []report.Envelope, ...Option) *Store
	}{
		{"v2", buildScanStore},
		{"v1", buildScanStoreV1},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s := cfg.build(t, envs, WithBlockSize(1<<10))
			defer s.Close()
			for i, q := range scanTestQueries() {
				stats := checkScanAgainstNaive(t, s, q)
				if i == 0 && stats.Blocks == 0 {
					t.Fatal("no blocks considered; store built wrong")
				}
			}
		})
	}
}

// TestScanPrunes checks the zone maps actually fire: a time window
// before the dataset prunes every block by time, an unknown file type
// prunes by fingerprint, and MaliciousOnly over a benign-only store
// prunes by verdict summary.
func TestScanPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	envs := genScanEnvelopes(rng, 120, 16)
	s := buildScanStore(t, envs, WithBlockSize(1<<10))
	defer s.Close()

	// A window after the whole dataset prunes everything by time —
	// including the zero-timestamp month, whose zone is [0, 0]. (A
	// window *before* the dataset would not: rows without an analysis
	// date match any Until-only query by design.)
	var c CountAgg
	stats, err := s.Scan(Query{Since: t0.Add(200 * 24 * time.Hour).Unix()}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 0 || stats.Pruned[PruneTime] != stats.Blocks {
		t.Fatalf("post-dataset window: rows %d, time-pruned %d of %d blocks", c.N, stats.Pruned[PruneTime], stats.Blocks)
	}
	if stats.CompressedBytes != 0 {
		t.Fatalf("fully pruned scan still read %d compressed bytes", stats.CompressedBytes)
	}

	stats = checkScanAgainstNaive(t, s, Query{FileTypes: []string{"totally-absent-filetype-zq"}, Cols: ColAll})
	if stats.Pruned[PruneFileType] == 0 {
		t.Fatalf("unknown file type pruned nothing: %+v", stats.Pruned)
	}

	// A benign-only store: every block's Mal summary is 0.
	benign := genScanEnvelopes(rng, 40, 8)
	for i := range benign {
		for j := range benign[i].Scan.Results {
			benign[i].Scan.Results[j].Verdict = report.Benign
		}
		benign[i].Scan.AVRank = 0
		benign[i].Scan.EnginesTotal = report.CountActive(benign[i].Scan.Results)
	}
	sb := buildScanStore(t, benign, WithBlockSize(1<<10))
	defer sb.Close()
	var cb CountAgg
	stats, err = sb.Scan(Query{MaliciousOnly: true}, &cb)
	if err != nil {
		t.Fatal(err)
	}
	if cb.N != 0 || stats.Pruned[PruneVerdict] != stats.Blocks {
		t.Fatalf("benign store: rows %d, verdict-pruned %d of %d blocks", cb.N, stats.Pruned[PruneVerdict], stats.Blocks)
	}
}

// TestZoneEdgeCases covers the degenerate block shapes pruning must
// stay conservative on.
func TestZoneEdgeCases(t *testing.T) {
	t.Run("empty-block", func(t *testing.T) {
		// An empty block entry (replication of an empty member) is
		// pruned unconditionally, under its own reason.
		cq := compileQuery(Query{})
		bm := blockMeta{Rows: 0}
		if got := cq.prunesBlock(&bm, 0, nil); got != PruneEmpty {
			t.Fatalf("empty block pruned as %q, want %q", got, PruneEmpty)
		}
	})

	t.Run("single-row-block", func(t *testing.T) {
		// One row per block: zone bounds collapse to a point; an exact
		// [at, at] window must still scan and match.
		env := envelope("solo", t0, 2)
		s := buildScanStore(t, []report.Envelope{env})
		defer s.Close()
		at := t0.Unix()
		stats := checkScanAgainstNaive(t, s, Query{Since: at, Until: at, Cols: ColAll})
		if stats.Rows != 1 {
			t.Fatalf("point window missed the row: %+v", stats)
		}
		// Just outside the point on either side prunes the block.
		for _, q := range []Query{{Since: at + 1}, {Until: at - 1}} {
			var c CountAgg
			st, err := s.Scan(q, &c)
			if err != nil {
				t.Fatal(err)
			}
			if c.N != 0 || st.Pruned[PruneTime] == 0 {
				t.Fatalf("off-by-one window %+v: rows %d pruned %+v", q, c.N, st.Pruned)
			}
		}
	})

	t.Run("fingerprint-false-positive", func(t *testing.T) {
		// A value absent from the store whose 64-bit fingerprint bit
		// collides with a present value must force a scan (which finds
		// nothing) — never a skip based on a hash coincidence, and never
		// phantom rows.
		env := envelope("fp", t0, 1) // file type "Win32 EXE"
		s := buildScanStore(t, []report.Envelope{env})
		defer s.Close()
		collide := ""
		for i := 0; ; i++ {
			cand := fmt.Sprintf("ft-collide-%d", i)
			if cand != "Win32 EXE" && zoneBit(cand) == zoneBit("Win32 EXE") {
				collide = cand
				break
			}
		}
		stats := checkScanAgainstNaive(t, s, Query{FileTypes: []string{collide}, Cols: ColAll})
		if stats.Rows != 0 {
			t.Fatalf("colliding file type matched %d rows", stats.Rows)
		}
		if stats.Scanned == 0 {
			t.Fatalf("false-positive fingerprint was pruned instead of scanned: %+v", stats.Pruned)
		}
	})
}

// goldenDirLegacyIdx is the committed v2 fixture with its original
// pre-zone sidecars (no "ver" field, no zone entries) — the exact
// bytes an earlier build left on disk.
const goldenDirLegacyIdx = "testdata/golden-v2-legacy-idx"

// TestLegacySidecarUpgradedOnOpen pins the upgrade story: pre-zone
// sidecars are not trusted — Open rebuilds both months fully zoned —
// so scans prune from the first query on, and the sidecars the next
// flush persists are byte-identical to the current writer's.
func TestLegacySidecarUpgradedOnOpen(t *testing.T) {
	dir := copyFixture(t, goldenDirLegacyIdx)
	s, _, rebuilds := openCounting(t, dir)
	if rebuilds != 2 {
		t.Fatalf("legacy-sidecar fixture: Open rebuilt %d indexes, want 2", rebuilds)
	}

	// Zones prune immediately: no block can hold an absent file type.
	q := Query{FileTypes: []string{"definitely-absent"}, Cols: ColAll}
	stats := checkScanAgainstNaive(t, s, q)
	if stats.Pruned[PruneFileType] == 0 || stats.Scanned != 0 {
		t.Fatalf("rebuilt zones did not prune an absent file type: %+v", stats)
	}
	for _, q := range scanTestQueries() {
		checkScanAgainstNaive(t, s, q)
	}
	if n, err := s.Verify(); err != nil || n != 24 {
		t.Fatalf("Verify over upgraded indexes: %d, %v", n, err)
	}

	// Scans write nothing; the sidecars a Flush persists are the
	// current fixture's, byte for byte, and a reopen trusts them.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsEqualV2Fixture(t, dir)
	if _, _, rebuilds := openCounting(t, dir); rebuilds != 0 {
		t.Fatalf("upgraded sidecars not trusted on reopen: %d rebuilds", rebuilds)
	}
}

// TestScanStatsByTypeEquivalence pins the StatsByType rewire: the
// pushdown-backed tally must equal a naive per-row count.
func TestScanStatsByTypeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := buildScanStore(t, genScanEnvelopes(rng, 100, 20), WithBlockSize(1<<10))
	defer s.Close()
	got, err := s.StatsByType()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	if err := s.IterAll(1, func(_ string, r *report.ScanReport) error {
		want[r.FileType]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for ft, n := range want {
		if got[ft].Reports != n {
			t.Errorf("StatsByType[%q].Reports = %d, naive count %d", ft, got[ft].Reports, n)
		}
	}
}

// TestVerifyCatchesZoneCorruption: a sidecar whose zone disagrees with
// its payload must fail Verify with ErrIndexMismatch.
func TestVerifyCatchesZoneCorruption(t *testing.T) {
	dir := copyFixture(t, goldenDirV2)
	month := "2021-05"
	// Corrupt one block's zone in the sidecar on disk, then reopen.
	raw, err := os.ReadFile(sidecarPath(dir, month))
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(raw), `"m":`, `"m":9`, 1)
	if mutated == string(raw) {
		t.Fatalf("fixture sidecar has no zone malicious-count field to corrupt: %s", raw)
	}
	if err := os.WriteFile(sidecarPath(dir, month), []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Verify(); err == nil {
		t.Fatal("Verify accepted a sidecar with a corrupt zone map")
	}
}

// TestScanKernelAllocBudget pins the steady-state per-block kernel
// cycle — NewPartial, feed rows, Merge — at zero allocations once the
// partial pool and result maps are warm. This is what keeps large
// scans GC-quiet: the per-block cost is decode work, not garbage.
func TestScanKernelAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("-race randomizes sync.Pool reuse; the pooled cycle cannot be alloc-counted")
	}
	rows := make([]RowView, 32)
	for i := range rows {
		rows[i] = RowView{Month: "2021-05", FT: scanFTs[i%len(scanFTs)]}
	}
	var agg GroupCountByType
	cycle := func() {
		p := agg.NewPartial()
		for i := range rows {
			if err := p.Row(&rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := agg.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // warm the partial pool and the result map
		cycle()
	}
	if got := testing.AllocsPerRun(200, cycle); got > 0 {
		t.Errorf("group-by kernel cycle allocs/op = %v, budget 0", got)
	}

	// The row loop itself under a SHA predicate, as a Get reads a v2
	// block: the lazy dictionaries live in the pooled scratch, so a
	// block costs no allocation once the scratch has settled.
	payload, err := appendColumnarBlock(nil, rawBlockFor(colTestReports()))
	if err != nil {
		t.Fatal(err)
	}
	cq := compileQuery(Query{SHAs: []string{"aaa"}, Cols: ColAll &^ ColSHA})
	var fed int64
	count := rowFunc(func(*RowView) error { fed++; return nil })
	block := func() {
		if _, err := scanColPushdown(payload, cq, "2021-05", count); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // settle the pooled scratch
		block()
	}
	if got := testing.AllocsPerRun(200, block); got > 0 {
		t.Errorf("SHA-predicate block scan allocs/op = %v, budget 0", got)
	}
	if fed == 0 {
		t.Fatal("SHA-predicate block scan fed no row")
	}
}

// TestScanColPushdownSHAPredicate pins the row loop under a SHA
// predicate, the way every Get reads a v2 block: a hit feeds exactly
// the sample's rows, in storage order, and decodes only the dictionary
// entries they name; a miss feeds nothing and decodes no entry.
func TestScanColPushdownSHAPredicate(t *testing.T) {
	raw := rawBlockFor(colTestReports())
	payload, err := appendColumnarBlock(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	get := func(ws *scanScratch, sha string) []*report.ScanReport {
		t.Helper()
		agg := historyAgg{sha: sha}
		pt := agg.NewPartial()
		cq := compileQuery(Query{SHAs: []string{sha}, Cols: ColAll &^ ColSHA})
		if _, err := ws.scan(payload, cq, "2021-05", pt); err != nil {
			t.Fatal(err)
		}
		if err := agg.Merge(pt); err != nil {
			t.Fatal(err)
		}
		return agg.reports
	}

	var hit scanScratch
	got := get(&hit, "aaa")
	var want []*report.ScanReport
	for _, r := range decodeV1Rows(t, raw) {
		if r.SHA256 == "aaa" {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan(aaa):\n got %+v\nwant %+v", got, want)
	}
	// "PDF" is only the other samples' file type: never decoded.
	if !reflect.DeepEqual(hit.ft.vals, []string{"Win32 EXE", ""}) {
		t.Fatalf("file-type dictionary after a hit = %q, want only aaa's entry decoded", hit.ft.vals)
	}

	var miss scanScratch
	if got := get(&miss, "zzz"); got != nil {
		t.Fatalf("scan(absent) fed %+v", got)
	}
	for _, d := range []*scanDict{&miss.ft, &miss.eng, &miss.lab} {
		if slices.ContainsFunc(d.vals, func(v string) bool { return v != "" }) {
			t.Fatalf("a miss decoded dictionary entries %q", d.vals)
		}
	}
}

// FuzzScanPushdownDifferential drives random queries over random
// stores in both block formats and demands Scan agree with the naive
// full-decode filter row for row — the end-to-end contract of the
// whole pushdown engine (pruning, projection, skipping, v1 row decode,
// and indexes rebuilt at Open). Its open-writer arm first demands that
// a scan beside open writers equals the scan after a Flush. Its Get
// arm demands that Get of one sample — over the open writers and again
// after the Flush — equals the naive reference's rows for it, and a
// SHA scan for it the naive filter's.
func FuzzScanPushdownDifferential(f *testing.F) {
	f.Add(int64(1), uint8(0), int64(0), int64(0), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(2), uint8(1))
	f.Add(int64(2), uint8(1), int64(20), int64(55), uint8(1), uint8(2), uint8(1), true, uint8(3), uint8(1), uint8(2))
	f.Add(int64(3), uint8(2), int64(-5), int64(200), uint8(9), uint8(9), uint8(9), false, uint8(9), uint8(4), uint8(3))
	f.Add(int64(4), uint8(3), int64(0), int64(0), uint8(0), uint8(0), uint8(0), false, uint8(0), uint8(1), uint8(4))
	f.Add(int64(5), uint8(3), int64(30), int64(70), uint8(2), uint8(1), uint8(0), true, uint8(2), uint8(3), uint8(5))
	// Empty values: the "" file type and label in the predicate sets
	// (selectors 5 and 4 take the whole vocabulary), and a Get and a
	// SHA scan of the empty SHA, which no store holds.
	f.Add(int64(6), uint8(4), int64(0), int64(0), uint8(5), uint8(0), uint8(4), false, uint8(0), uint8(2), uint8(0))
	f.Add(int64(7), uint8(3), int64(0), int64(0), uint8(5), uint8(5), uint8(4), false, uint8(1), uint8(0), uint8(0))
	f.Add(int64(8), uint8(1), int64(0), int64(0), uint8(5), uint8(0), uint8(4), false, uint8(0), uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, format uint8, sinceDays, untilDays int64,
		ftSel, engSel, labSel uint8, malOnly bool, shaSel, workers, getSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		envs := genScanEnvelopes(rng, 60, 12)
		// No cache: the Get after the Flush must decode again.
		opts := []Option{WithBlockSize(1 << 9), WithCacheSize(0)}
		var s *Store
		switch format % 5 {
		case 0:
			s = buildScanStore(t, envs, opts...)
		case 1:
			s = buildScanStoreV1(t, envs, opts...)
		case 2: // legacy: the pre-sidecar shape — v1, one giant member
			// per flush, no .idx files — reopened below so the scan runs
			// over indexes Open rebuilt from the partition bytes.
			s = buildScanStore(t, envs, WithBlockSize(1<<30), WithCacheSize(0))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			writeV1Store(t, s.dir)
			var rebuilds int64
			if s, _, rebuilds = openCounting(t, s.dir, WithCacheSize(0)); rebuilds == 0 {
				t.Fatal("sidecar-less store opened without rebuilding an index")
			}
		case 3: // open writers: rows pending, blocks queued
			s = buildOpenScanStore(t, envs, opts...)
		case 4: // mixed: v2 blocks appended to v1 months
			s = buildScanStoreV1(t, envs[:30], opts...)
			for _, env := range envs[30:] {
				if err := s.Put(env); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		defer s.Close()

		q := Query{Cols: ColAll, Workers: int(workers % 5)}
		if sinceDays != 0 {
			q.Since = t0.Add(time.Duration(sinceDays%120) * 24 * time.Hour).Unix()
		}
		if untilDays != 0 {
			q.Until = t0.Add(time.Duration(untilDays%120) * 24 * time.Hour).Unix()
		}
		if n := int(ftSel) % (len(scanFTs) + 1); n > 0 {
			q.FileTypes = scanFTs[:n]
		}
		if n := int(engSel) % (len(scanEngs) + 1); n > 0 {
			q.Engines = scanEngs[:n]
		}
		if n := int(labSel) % (len(scanLabs) + 1); n > 0 {
			q.Labels = scanLabs[:n]
		}
		if shaSel > 0 {
			for i := uint8(0); i < shaSel%4; i++ {
				q.SHAs = append(q.SHAs, fmt.Sprintf("scan%03d", int(shaSel)+int(i)))
			}
		}
		q.MaliciousOnly = malOnly
		sha := ""
		if getSel > 0 {
			sha = fmt.Sprintf("scan%03d", int(getSel)%12)
		}
		h, err := s.Get(sha)
		if format%5 == 3 {
			checkOpenEqualsFlushed(t, s, q)
		}
		checkScanAgainstNaive(t, s, q)
		checkGetAgainstNaive(t, s, sha, h, err)
		h, err = s.Get(sha)
		checkGetAgainstNaive(t, s, sha, h, err)
		checkScanAgainstNaive(t, s, Query{SHAs: []string{sha}, Cols: ColAll, Workers: int(workers % 5)})
	})
}

// checkGetAgainstNaive holds one Get result to the naive reference:
// the sample's rows of every sealed block, decoded in full, in storage
// order, then stably sorted by time. A sample without rows is not
// indexed, so its Get must fail. The store must be flushed.
func checkGetAgainstNaive(t testing.TB, s *Store, sha string, h *report.History, err error) {
	t.Helper()
	var want []*report.ScanReport
	for _, mi := range s.monthIndexes(nil) {
		for _, bm := range mi.ix.snapshotBlocks() {
			if err := decodeBlockRows(s.partPath(mi.month), bm, func(row *scanRow) {
				if row.SHA == sha {
					want = append(want, rowToReport(*row))
				}
			}); err != nil {
				t.Fatalf("naive get: %v", err)
			}
		}
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].AnalysisDate.Before(want[j].AnalysisDate) })
	switch {
	case len(want) == 0 && !errors.Is(err, ErrUnknownSample):
		t.Fatalf("Get(%q) of a sample without rows = %v, %v", sha, h, err)
	case len(want) == 0:
	case err != nil:
		t.Fatalf("Get(%q): %v", sha, err)
	case !reflect.DeepEqual(h.Reports, want):
		t.Fatalf("Get(%q) diverges from the naive reference:\n got %d %+v\nwant %d %+v", sha, len(h.Reports), h.Reports, len(want), want)
	}
}

// TestScanLegacyFixtureSidecarBytes pins the committed legacy-sidecar
// fixture itself: its .idx files must stay version-less (no zone
// fields), or the upgrade test above silently stops covering the
// legacy path.
func TestScanLegacyFixtureSidecarBytes(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join(goldenDirLegacyIdx, "*.idx"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("legacy fixture sidecars missing: %v (%d found)", err, len(matches))
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(b), `"ver"`) || strings.Contains(string(b), `"z"`) {
			t.Errorf("%s: legacy fixture sidecar carries zone-era fields", m)
		}
	}
}
