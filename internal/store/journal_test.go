package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

// withFoldStep is the crash-enumeration test hook: a callback that stops
// a fold, a snapshot write or a migration after a named step.
func withFoldStep(fn func(step string) error) Option { return func(s *Store) { s.foldStep = fn } }

// journalCampaign is a Sync-per-poll campaign in miniature: 24 windows
// of one to three envelopes over two months, samples recurring so that
// metas change, rows big enough that a 1 KiB block fills every few.
func journalCampaign() [][]report.Envelope {
	var wins [][]report.Envelope
	n := 0
	for w := 0; w < 24; w++ {
		var win []report.Envelope
		for k := 0; k <= w%3; k++ {
			at := t0.Add(time.Duration(n) * time.Hour)
			if w%2 == 1 {
				at = at.AddDate(0, 1, 0)
			}
			env := envelope(fmt.Sprintf("jr%02d", n%10), at, n%6)
			env.Meta.TimesSubmitted = n + 1
			win = append(win, env)
			n++
		}
		wins = append(wins, win)
	}
	return wins
}

// storeState is what a reopen must bring back: accounting and metas.
type storeState struct {
	total  PartitionStats
	months map[string]PartitionStats
	metas  map[string]report.SampleMeta
}

func stateOf(s *Store) storeState {
	st := storeState{total: s.TotalStats(), months: map[string]PartitionStats{}, metas: s.snapshotSamples()}
	for _, m := range s.Months() {
		st.months[m] = s.Stats(m)
	}
	return st
}

func rowKey(sha string, at time.Time) string { return fmt.Sprintf("%s@%d", sha, at.Unix()) }

// checkRecovered asserts that s, reopened after a kill, is the store
// as of the checkpoint that put and want describe: state equal, every
// row present exactly once, Verify clean. It flushes s.
func checkRecovered(t *testing.T, s *Store, want storeState, put []report.Envelope) {
	t.Helper()
	if got := stateOf(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state differs from the live store's at the checkpoint:\n got %+v\nwant %+v", got, want)
	}
	rows := make(map[string]int)
	if err := s.IterAll(1, func(_ string, r *report.ScanReport) error {
		rows[rowKey(r.SHA256, r.AnalysisDate)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(put) {
		t.Fatalf("recovered %d distinct rows, the checkpoint acknowledged %d", len(rows), len(put))
	}
	for _, env := range put {
		if n := rows[rowKey(env.Scan.SHA256, env.Scan.AnalysisDate)]; n != 1 {
			t.Fatalf("row %s present %d times, want exactly once", rowKey(env.Scan.SHA256, env.Scan.AnalysisDate), n)
		}
	}
	if n, err := s.Verify(); err != nil || n != len(put) {
		t.Fatalf("Verify after recovery: %d rows, %v", n, err)
	}
}

// closeLeavesNoJournal closes a recovered store and checks that the
// directory is a plain closed store again.
func closeLeavesNoJournal(t *testing.T, s *Store, dir string, reports int) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.log after Close: %v", err)
	}
	re, reg, rebuilds := openCounting(t, dir)
	if re.TotalStats().Reports != reports || rebuilds != 0 || reg.SumCounters("store_journal_replayed_rows_total") != 0 {
		t.Fatalf("closed store reopened with %d reports (want %d), %d index rebuilds", re.TotalStats().Reports, reports, rebuilds)
	}
}

// copyDir copies a store directory into a fresh temp dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyFixtureInto(t, src, dst)
	return dst
}

func journalSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalTornFinalRecordEveryLength kills a Sync-per-poll campaign
// inside its last Sync at every byte of that Sync's record. Open alone
// must bring back the store as of the previous Sync (or of the last,
// once the record is whole), with every acknowledged row exactly once —
// across the two exactly-once traps the campaign contains: blocks that
// fill between two Syncs, and Flushes between two Syncs that seal rows
// the journal already carries. The subtest is named for the block
// format the campaign writes.
func TestJournalTornFinalRecordEveryLength(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		dir := t.TempDir()
		reg := obs.NewRegistry()
		s, err := Open(dir, WithBlockSize(1<<10), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		cuts := func() int64 { return reg.SumCounters("store_blocks_cut_total") }
		// The record the kill tears is a one-row poll: every byte of it
		// is a case below.
		wins := append(journalCampaign(), []report.Envelope{envelope("jr-last", t0.Add(500*time.Hour), 0)})
		var (
			put              []report.Envelope
			before           storeState
			putBefore        int
			sizeBefore       int64
			filled, flushCut int64
		)
		for i, win := range wins {
			c0 := cuts()
			if err := s.PutBatch(win); err != nil {
				t.Fatal(err)
			}
			put = append(put, win...)
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			// Blocks count when they commit, which for one cut by the
			// PutBatch may be inside Sync's wait for the writer's queue.
			c1 := cuts()
			filled += c1 - c0
			if i%5 == 1 { // seal rows the record above just journaled
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				flushCut += cuts() - c1
			}
			if i == len(wins)-2 {
				before, putBefore, sizeBefore = stateOf(s), len(put), journalSize(t, dir)
			}
		}
		after, sizeAfter := stateOf(s), journalSize(t, dir)
		if filled == 0 || flushCut == 0 {
			t.Fatalf("campaign has %d fill cuts and %d flush cuts between Syncs; both traps must occur", filled, flushCut)
		}
		if after.total.StoredBytes == 0 || after.total.StoredBytes >= after.total.RawBytes {
			t.Fatalf("live StoredBytes = %d beside %d raw: committed blocks not accounted", after.total.StoredBytes, after.total.RawBytes)
		}
		// s is abandoned un-Closed here, like a killed process.

		orig, err := os.ReadFile(filepath.Join(dir, journalName))
		if err != nil {
			t.Fatal(err)
		}
		// recoverAt reopens a copy whose journal is cut at size and then,
		// when zeroTo is larger, extended with zeros to zeroTo — what a
		// power loss leaves of an append whose size update outran its data.
		recoverAt := func(size, zeroTo int64) {
			cp := copyDir(t, dir)
			cut := append(orig[:size:size], make([]byte, max(size, zeroTo)-size)...)
			if err := os.WriteFile(filepath.Join(cp, journalName), cut, 0o644); err != nil {
				t.Fatal(err)
			}
			re, rreg, _ := openCounting(t, cp, WithBlockSize(1<<10))
			want, acked, tornBytes := before, put[:putBefore], int64(len(cut))-sizeBefore
			// The last record is whole from size on if zeros are all it ends in.
			if bytes.HasPrefix(cut, orig) {
				want, acked, tornBytes = after, put, int64(len(cut))-sizeAfter
			}
			if got := rreg.SumCounters("store_journal_torn_tail_total"); (got == 1) != (tornBytes > 0) || int64(len(cut))-re.jsize != tornBytes {
				t.Fatalf("journal cut at %d, zeros to %d: %d torn tails of %d bytes counted, want %d bytes",
					size, zeroTo, got, int64(len(cut))-re.jsize, tornBytes)
			}
			if n := rreg.SumCounters("store_journal_replayed_rows_total"); n == 0 || n >= int64(len(acked)) {
				t.Fatalf("journal cut at %d: %d of %d rows replayed; sealed rows must be skipped, pending ones re-fed", size, n, len(acked))
			}
			checkRecovered(t, re, want, acked)
			if size%32 != 0 && size != sizeBefore+1 && size != sizeAfter {
				return
			}
			// The recovered store keeps checkpointing over the dropped tail.
			more := envelope("jr-more", t0.Add(1000*time.Hour), 2)
			if err := re.Put(more); err != nil {
				t.Fatal(err)
			}
			if err := re.Sync(); err != nil {
				t.Fatal(err)
			}
			closeLeavesNoJournal(t, re, cp, len(acked)+1)
		}
		for size := sizeBefore; size <= sizeAfter; size++ {
			recoverAt(size, 0)
			if d := size - sizeBefore; d <= journalFrameHdr+1 || d%16 == 0 || size == sizeAfter {
				recoverAt(size, sizeAfter)      // the record's extent, zero from size on
				recoverAt(size, size+1)         // shorter than a frame header
				recoverAt(size, sizeAfter+4096) // a whole zero page behind it
			}
		}
	})
}

// TestJournalFoldCrashEveryStep stops a fold — one that Sync started
// because the journal outgrew its threshold (4 × the 1 KiB block size
// here), and the one Close ends with — after each of its writes and
// renames. Whatever mix of old
// journal and new snapshots the kill leaves, Open alone must bring back
// the store as of the record the fold followed.
func TestJournalFoldCrashEveryStep(t *testing.T) {
	stopped := errors.New("killed mid-fold")
	for _, atClose := range []bool{false, true} {
		for _, step := range []string{"partitions", "samples", "stats", "journal"} {
			t.Run(fmt.Sprintf("close=%v/after-%s", atClose, step), func(t *testing.T) {
				dir := t.TempDir()
				reg := obs.NewRegistry()
				armed := false
				s, err := Open(dir, WithBlockSize(1<<10), WithMetrics(reg),
					withFoldStep(func(name string) error {
						if armed && name == step {
							return stopped
						}
						return nil
					}))
				if err != nil {
					t.Fatal(err)
				}
				var put []report.Envelope
				killed := false
				for i, win := range journalCampaign() {
					if err := s.PutBatch(win); err != nil {
						t.Fatal(err)
					}
					put = append(put, win...)
					armed = !atClose && i >= 8
					if err := s.Sync(); errors.Is(err, stopped) {
						killed = true
						break
					} else if err != nil {
						t.Fatal(err)
					}
				}
				// The first Sync's fold only starts the journal (i = 0, never
				// armed); the fold a Sync is killed in is therefore one the
				// threshold triggered, and before a kill at Close at least one
				// of those must have run to completion.
				if folds := reg.SumCounters("store_journal_folds_total"); folds == 0 || (atClose && folds < 2) {
					t.Fatalf("%d folds completed before the kill; the threshold path is untested", folds)
				}
				if atClose {
					armed = true
					killed = errors.Is(s.Close(), stopped)
				}
				if !killed {
					t.Fatalf("no fold reached step %q", step)
				}
				want := stateOf(s) // the record is durable: this is what was acknowledged

				re, _, _ := openCounting(t, dir, WithBlockSize(1<<10))
				checkRecovered(t, re, want, put)
				closeLeavesNoJournal(t, re, dir, len(put))
			})
		}
	}
}

// TestStoredBytesSurvivesKill pins the accounting fix: stored bytes are
// counted where a block commits, so the live figure includes open
// writers' blocks, a kill after a Sync loses none of it, and neither
// does the Close after the reopen.
func TestStoredBytesSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Put(envelope(fmt.Sprintf("sb%02d", i), t0.Add(time.Duration(i)*time.Hour), i%5)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := func() int64 {
		fi, err := os.Stat(s.partPath(MonthKey(t0)))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	live := s.TotalStats()
	if live.StoredBytes == 0 || live.StoredBytes != onDisk() {
		t.Fatalf("live StoredBytes = %d, partition holds %d bytes", live.StoredBytes, onDisk())
	}
	// Abandon s; reopen what a killed process would have left.
	re, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	if got := re.TotalStats(); got != live {
		t.Fatalf("reopened after kill: %+v, live store at its last Sync had %+v", got, live)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := closed.TotalStats(); got.StoredBytes != onDisk() || got.Reports != 50 || got.RawBytes != live.RawBytes {
		t.Fatalf("after Close and reopen: %+v, partition holds %d bytes", got, onDisk())
	}
}

// TestNoChangeTrackingWithoutSync pins that the journal costs a store
// that never checkpoints nothing: its Puts record no dirty samples or
// months (which would grow by one entry per distinct sample and never
// be cleared), and Close leaves no journal. The session's first Sync
// turns the tracking on, and — rows having been Put before it — starts
// the journal with a fold rather than with a delta nothing recorded.
func TestNoChangeTrackingWithoutSync(t *testing.T) {
	tracked := func(s *Store) (n int) {
		for i := range s.shards {
			n += len(s.shards[i].dirty)
		}
		return n + len(s.dirtyMonths)
	}
	dir := t.TempDir()
	s, reg, _ := openCounting(t, dir, WithBlockSize(1<<10))
	for _, win := range journalCampaign() {
		if err := s.PutBatch(win); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(win[0].Scan.SHA256); err != nil {
			t.Fatal(err)
		}
	}
	if n := tracked(s); n != 0 || s.tracking.Load() {
		t.Fatalf("a store that never called Sync tracks %d dirty entries", n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
		t.Fatalf("checkpoint.log after an uncheckpointed session: %v", err)
	}
	if n := reg.SumCounters("store_journal_bytes_total") + reg.SumCounters("store_journal_folds_total"); n != 0 {
		t.Fatalf("uncheckpointed session touched the journal (%d)", n)
	}

	s, reg, _ = openCounting(t, dir, WithBlockSize(1<<10))
	var put []report.Envelope
	for _, win := range journalCampaign() {
		put = append(put, win...)
	}
	late := envelope("late", t0.Add(700*time.Hour), 1)
	if err := s.Put(late); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if folds, records := reg.SumCounters("store_journal_folds_total"), reg.SumCounters("store_journal_records_total"); folds != 1 || records != 0 {
		t.Fatalf("first Sync after untracked Puts: %d folds, %d records; want one fold", folds, records)
	}
	later := envelope("later", t0.Add(701*time.Hour), 1)
	if err := s.Put(later); err != nil {
		t.Fatal(err)
	}
	if n := tracked(s); n != 2 { // one sample, one month
		t.Fatalf("a checkpointing store tracks %d dirty entries after one Put, want 2", n)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := tracked(s); n != 0 || reg.SumCounters("store_journal_records_total") != 1 {
		t.Fatalf("Sync left %d dirty entries", n)
	}
	want := stateOf(s)
	re, _, _ := openCounting(t, dir, WithBlockSize(1<<10)) // s abandoned
	checkRecovered(t, re, want, append(put, late, later))
}

// TestFirstSyncRacesPuts starts checkpointing under concurrent Puts.
// Whether a Put's sample is recorded as dirty depends on a flag the
// first Sync flips, so this is where a meta could fall between the
// snapshot that Sync folds and the records that follow: every Put that
// returned before a Sync began must come back from a kill after that
// Sync with its row and its exact meta, not the stub a row without a
// meta gets.
func TestFirstSyncRacesPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 60
	env := func(w, i int) report.Envelope {
		e := envelope(fmt.Sprintf("race-%d-%03d", w, i), t0.Add(time.Duration(w*perWriter+i)*time.Minute), i%5)
		e.Meta.TimesSubmitted = 1000*w + i + 1
		return e
	}
	var done [writers]atomic.Int64 // Puts returned, per writer
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Put(env(w, i)); err != nil {
					t.Error(err)
					return
				}
				done[w].Store(int64(i + 1))
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for done[0].Load() == 0 { // the first Sync must find Puts behind it and beside it
		runtime.Gosched()
	}
	var acked [writers]int64
	for racing := true; racing; {
		select {
		case <-finished:
			racing = false
		default:
		}
		var seen [writers]int64
		for w := range seen {
			seen[w] = done[w].Load()
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		acked = seen
	}
	if acked[0] != perWriter {
		t.Fatalf("last Sync acknowledged %d of writer 0's %d Puts", acked[0], perWriter)
	}
	// s is abandoned; everything acked must be in what it left on disk.
	re, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < int(acked[w]); i++ {
			want := env(w, i)
			if got, ok := re.Meta(want.Meta.SHA256); !ok || got.TimesSubmitted != want.Meta.TimesSubmitted || got.Size != want.Meta.Size {
				t.Fatalf("writer %d put %d, acknowledged by a Sync: meta %+v (found %v), want %+v", w, i, got, ok, want.Meta)
			}
			if h, err := re.Get(want.Meta.SHA256); err != nil || len(h.Reports) != 1 {
				t.Fatalf("writer %d put %d, acknowledged by a Sync: history %v, %v", w, i, h, err)
			}
		}
	}
	if _, err := re.Verify(); err != nil {
		t.Fatalf("Verify after the racing session: %v", err)
	}
}

// buildClosedStore writes n single-report samples and closes the store.
func buildClosedStore(tb testing.TB, dir string, n int) {
	tb.Helper()
	s, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	batch := make([]report.Envelope, 0, 256)
	for i := 0; i < n; i++ {
		batch = append(batch, envelope(fmt.Sprintf("sz%07d", i), t0.Add(time.Duration(i)*time.Second), i%4))
		if len(batch) == cap(batch) || i == n-1 {
			if err := s.PutBatch(batch); err != nil {
				tb.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.Close(); err != nil {
		tb.Fatal(err)
	}
}

// syncWindow is the two-row poll the size tests checkpoint.
func syncWindow(i int) []report.Envelope {
	at := t0.Add(24*time.Hour + time.Duration(i)*time.Minute)
	return []report.Envelope{envelope("win-a", at, 3), envelope("win-b", at.Add(time.Second), 1)}
}

// TestSyncJournalBytesIndependentOfStoreSize is O(delta) asserted, not
// timed: the journal bytes one Sync writes for the same two-row window
// are the same on a store of N samples and on one of 10 N.
func TestSyncJournalBytesIndependentOfStoreSize(t *testing.T) {
	perSync := func(n int) int64 {
		dir := t.TempDir()
		buildClosedStore(t, dir, n)
		s, reg, _ := openCounting(t, dir)
		var last int64
		// The session's first Sync starts the journal with a fold, the one
		// O(store) step; every Sync after it appends a record.
		for i := 0; i < 4; i++ {
			if err := s.PutBatch(syncWindow(i)); err != nil {
				t.Fatal(err)
			}
			b0 := reg.SumCounters("store_journal_bytes_total")
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			last = reg.SumCounters("store_journal_bytes_total") - b0
		}
		if records, folds := reg.SumCounters("store_journal_records_total"), reg.SumCounters("store_journal_folds_total"); records != 3 || folds != 1 {
			t.Fatalf("N=%d: %d records and %d folds, want the starting fold and 3 records", n, records, folds)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	small, large := perSync(300), perSync(3000)
	if small == 0 || small > 4<<10 {
		t.Fatalf("one two-row Sync journaled %d bytes", small)
	}
	// Fixed-width integers make the records the same length exactly; the
	// slack only allows a future varint field.
	if d := large - small; d < -16 || d > 16 {
		t.Fatalf("Sync journaled %d bytes on 300 samples and %d on 3000: not O(delta)", small, large)
	}
}

// TestFoldsAreAmortised keeps a dozen months open with under-filled
// blocks, so the pending rows a fold carries over into the new journal
// are several times the block size and the snapshots: the threshold has
// to count them, or every Sync past the first fold would fold again and
// a checkpoint would be O(pending rows), not O(delta).
func TestFoldsAreAmortised(t *testing.T) {
	s, reg, _ := openCounting(t, t.TempDir(), WithBlockSize(2<<10))
	const syncs = 240
	for i := 0; i < syncs; i++ {
		at := t0.AddDate(0, i%12, 0).Add(time.Duration(i) * time.Minute)
		if err := s.Put(envelope(fmt.Sprintf("am%02d", i%20), at, i%3)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	folds, records := reg.SumCounters("store_journal_folds_total"), reg.SumCounters("store_journal_records_total")
	// The first Sync starts the journal with a fold; every other one
	// appends a record, and a few of those tip the journal over.
	if records != syncs-1 || folds < 2 || 20*folds > syncs {
		t.Fatalf("%d Syncs: %d appended records and %d folds; want one start fold and a few threshold folds, each paid for by many appends", syncs, records, folds)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalResumesOverV1Months is the upgrade path of an old
// collector directory: a v1 store gets v2 rows Put into its months
// under a Sync per poll, and the process dies. Open must replay the
// journal onto the v1-sealed months and bring back every row exactly
// once, v1 and v2 alike.
func TestJournalResumesOverV1Months(t *testing.T) {
	dir := t.TempDir()
	writeGoldenV1(t, dir, WithBlockSize(2<<10))
	s, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, env := range goldenEnvelopes() {
		want[rowKey(env.Scan.SHA256, env.Scan.AnalysisDate)]++
	}
	for _, win := range journalCampaign() {
		if err := s.PutBatch(win); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, env := range win {
			want[rowKey(env.Scan.SHA256, env.Scan.AnalysisDate)]++
		}
	}
	// s is abandoned un-Closed here, like a killed process.

	re, reg, _ := openCounting(t, dir, WithBlockSize(1<<10))
	if n := reg.SumCounters("store_journal_replayed_rows_total"); n == 0 {
		t.Fatal("reopen re-fed no journaled rows; the kill left nothing pending")
	}
	got := make(map[string]int)
	for _, sha := range re.SampleHashes() {
		h, err := re.Get(sha)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range h.Reports {
			got[rowKey(r.SHA256, r.AnalysisDate)]++
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered rows differ from the acknowledged ones:\n got %v\nwant %v", got, want)
	}
	if n, err := re.Verify(); err != nil || n != len(want) {
		t.Fatalf("Verify after recovery: %d rows (want %d), %v", n, len(want), err)
	}
	for _, month := range re.Months() {
		vers := map[int]bool{}
		for _, bm := range re.index(month).snapshotBlocks() {
			vers[blockVer(bm)] = true
		}
		if !vers[FormatV1] || !vers[FormatV2] {
			t.Fatalf("%s holds block formats %v, want the v1 months continued in v2", month, vers)
		}
	}
}

// TestJournalCorruptionNeedsRepair: damage anywhere but in the final
// record is a typed Open error, and RepairDir's truncation at the last
// whole record makes the directory open and verify again.
func TestJournalCorruptionNeedsRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, win := range journalCampaign()[:6] {
		if err := s.PutBatch(win); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, journalSize(t, dir))
	}
	path := filepath.Join(dir, journalName)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[sizes[2]+journalFrameHdr+3] ^= 0xFF // inside the fourth record's payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, WithBlockSize(1<<10)); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("Open over a corrupt journal = %v, want ErrJournalCorrupt", err)
	}
	rs, err := RepairDir(dir)
	if err != nil || rs.JournalTruncatedBytes != sizes[5]-sizes[2] {
		t.Fatalf("RepairDir = %+v, %v; want %d journal bytes dropped", rs, err, sizes[5]-sizes[2])
	}
	re, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	// The three whole records replayed: each sample's meta is the last
	// one they journaled (the first Sync's fold snapshotted only the
	// first window's).
	metas := re.snapshotSamples()
	for _, win := range journalCampaign()[:3] {
		for _, env := range win {
			if got := metas[env.Meta.SHA256].TimesSubmitted; got != env.Meta.TimesSubmitted {
				t.Fatalf("%s: replayed meta says %d submissions, record said %d", env.Meta.SHA256, got, env.Meta.TimesSubmitted)
			}
		}
	}
	if _, err := re.Verify(); err != nil {
		t.Fatalf("Verify after repair: %v", err)
	}
	// A partition that lost rows the journal vouches for but does not
	// carry is beyond repair, and says so.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s2.Put(envelope(fmt.Sprintf("gap%02d", i), t0.Add(time.Duration(2000+i)*time.Hour), 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(s2.partPath(MonthKey(t0.Add(2000 * time.Hour)))); err != nil {
		t.Fatal(err)
	}
	os.Remove(sidecarPath(dir, MonthKey(t0.Add(2000*time.Hour))))
	if _, err := Open(dir, WithBlockSize(1<<10)); !errors.Is(err, ErrJournalMismatch) {
		t.Fatalf("Open with a sealed block missing = %v, want ErrJournalMismatch", err)
	}
}

// appendJournalFrame is the reference encoder the fuzzer re-encodes
// with: rec as one framed record, field by field as the store writes it.
func appendJournalFrame(dst []byte, rec *journalRecord) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, journalFrameHdr)...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Months)))
	for i := range rec.Months {
		dst = appendJournalMonth(dst, &rec.Months[i])
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rec.Metas)))
	for i := range rec.Metas {
		dst = appendJournalMeta(dst, &rec.Metas[i])
	}
	sealJournalFrame(dst[at:])
	return dst
}

// journalSeed is a small valid journal for the fuzzer.
func journalSeed() []byte {
	env := envelope("seed", t0, 2)
	lines := append(appendScanRow(nil, &env.Scan), '\n')
	rec := journalRecord{
		Months: []journalMonth{{Month: "2021-05", SealedRows: 7, Journaled: 1, Reports: 9, RawBytes: 4000,
			LineBytes: 900, Rows: 1, Lines: lines}},
		Metas: []metaRow{metaFrom(env.Meta)},
	}
	out := appendJournalFrame([]byte(journalMagic), &rec)
	return appendJournalFrame(out, &journalRecord{Months: []journalMonth{{Month: "2021-06"}}})
}

// FuzzJournalDecode drives the journal reader over arbitrary bytes: it
// must never panic, must fail only with ErrJournalCorrupt, must report
// a prefix that re-encodes to exactly the bytes it read, and must not
// allocate beyond what the input's own length implies (every count is
// checked against the bytes that remain).
func FuzzJournalDecode(f *testing.F) {
	seed := journalSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)-5])                 // torn final record
	f.Add(append(seed[:40:40], seed[41:]...)) // byte dropped mid-file
	f.Add([]byte(journalMagic))
	f.Add([]byte(journalMagic[:3]))
	f.Add([]byte("VTCKPT9\n"))
	f.Add(append([]byte(journalMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0))
	f.Add(append([]byte(journalMagic), 4, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F))
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(append(seed[:len(seed):len(seed)], make([]byte, 40)...))     // zero-filled tail behind whole records
	f.Add(append(seed[:len(seed)-5:len(seed)-5], make([]byte, 40)...)) // record torn, then zeros
	f.Add(append([]byte(journalMagic), 5, 0, 0, 0, 0, 0, 0, 0, 1))     // frame shorter than the empty record, data behind it

	f.Fuzz(func(t *testing.T, data []byte) {
		reenc := []byte(journalMagic)
		goodEnd, torn, err := readJournal(bytes.NewReader(data), func(rec *journalRecord) error {
			reenc = appendJournalFrame(reenc, rec)
			return nil
		})
		if err != nil && !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("untyped journal error: %v", err)
		}
		if goodEnd < 0 || goodEnd > int64(len(data)) {
			t.Fatalf("goodEnd %d outside the %d input bytes", goodEnd, len(data))
		}
		if goodEnd > 0 && !bytes.Equal(reenc, data[:goodEnd]) {
			t.Fatalf("the %d-byte valid prefix does not re-encode to itself", goodEnd)
		}
		if err == nil && !torn && goodEnd != int64(len(data)) {
			t.Fatalf("clean read stopped at %d of %d bytes", goodEnd, len(data))
		}
	})
}
