package concurrency

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
)

// The collector checkpoints through a feed.FileCursor whose Save is
// write-temp + fsync + rename, and the store is a feed.Syncer, so each
// slice's rows are in the store's fsynced checkpoint journal before any
// checkpoint advances. A kill can therefore interrupt a checkpoint at
// these points:
//
//   - inside store.Sync, mid-append of the journal record: the record
//     is torn, the cursor never moved, and Open drops the record;
//   - after the temp file is fsynced but before the rename promotes
//     it: the main cursor file still holds the previous frontier and a
//     newer valid .tmp is orphaned next to it;
//   - mid-write of the temp file: the .tmp is truncated garbage and
//     only the main file is trustworthy.
//
// In every case reopening the store and re-running the same window
// must be gap-free: every scheduled envelope present afterwards, with
// at most the single slice between the two frontiers re-fetched. These
// tests simulate the kill by hijacking cursor.Save at a chosen
// frontier, planting exactly the on-disk debris the crash would leave,
// and abandoning the live Store without Close — the reopened Store
// sees only what was durable: sealed blocks, and the journal, which
// Open replays (asserted in resume).

// crashCampaign is the shared fixture: a 30-minute window with one
// envelope per one-minute slice, all in a single monthly partition.
type crashCampaign struct {
	dir    string
	start  time.Time
	end    time.Time
	envs   []report.Envelope
	cursor string
	// reg receives the resumed store's metrics.
	reg *obs.Registry
}

func newCrashCampaign(t *testing.T) *crashCampaign {
	t.Helper()
	dir := t.TempDir()
	start := time.Date(2021, 5, 3, 12, 0, 0, 0, time.UTC)
	cc := &crashCampaign{
		dir:    dir,
		start:  start,
		end:    start.Add(30 * time.Minute),
		cursor: filepath.Join(dir, "collect.cursor"),
	}
	for i := 0; i < 30; i++ {
		cc.envs = append(cc.envs, storeEnvelope(
			fmt.Sprintf("cr-%03d", i), start.Add(time.Duration(i)*time.Minute), i%4))
	}
	return cc
}

// runUntilKill drives the campaign until the checkpoint at killAt,
// where plant writes the simulated crash debris instead of completing
// the Save. The store is abandoned un-Closed, exactly like a killed
// process: only data synced before the fatal checkpoint survives.
func (cc *crashCampaign) runUntilKill(t *testing.T, killAt time.Time, plant func(frontier time.Time)) {
	t.Helper()
	st, err := store.Open(cc.dir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	real := &feed.FileCursor{Path: cc.cursor}
	killed := errors.New("killed mid-checkpoint")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	trip := feed.CursorFunc{
		LoadFn: real.Load,
		SaveFn: func(frontier time.Time) error {
			if !frontier.Before(killAt) {
				plant(frontier)
				cancel()
				return killed
			}
			return real.Save(frontier)
		},
	}
	c := feed.NewCollector(&scriptedSource{envs: cc.envs}, st)
	c.Workers = 4
	if _, err := c.RunResumable(ctx, cc.start, cc.end, trip); !errors.Is(err, killed) {
		t.Fatalf("first run err = %v, want simulated kill", err)
	}
	// No Close: the abandoned Store's buffered state dies with the
	// "process". Everything up to the fatal checkpoint was synced — into
	// the journal, which is what is left to resume from.
	if fi, err := os.Stat(filepath.Join(cc.dir, "checkpoint.log")); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint journal after a killed checkpointed run: %v", err)
	}
}

// resume reopens the survivors and completes the window, returning the
// fresh source (for poll accounting) and the run stats.
func (cc *crashCampaign) resume(t *testing.T) (*scriptedSource, feed.Stats) {
	t.Helper()
	reg := obs.NewRegistry()
	cc.reg = reg
	st, err := store.Open(cc.dir, store.WithBlockSize(1<<10), store.WithMetrics(reg))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	// Reopen invariant: the rows Open re-fed from the journal plus the
	// rows in sealed blocks are exactly the rows accounted.
	replayed := reg.SumCounters("store_journal_replayed_rows_total")
	if replayed == 0 {
		t.Fatal("reopen replayed no journaled rows; the crash never exercised the journal")
	}
	if sealed := sealedRows(t, st); replayed+sealed != int64(st.TotalStats().Reports) {
		t.Fatalf("replayed %d + sealed %d rows != %d accounted", replayed, sealed, st.TotalStats().Reports)
	}
	src := &scriptedSource{envs: cc.envs}
	c := feed.NewCollector(src, st)
	c.Workers = 4
	stats, err := c.RunResumable(context.Background(), cc.start, cc.end, &feed.FileCursor{Path: cc.cursor})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return src, stats
}

// rowCounts reopens the finished store read-only and counts stored
// scan rows per sample.
func (cc *crashCampaign) rowCounts(t *testing.T) map[string]int {
	t.Helper()
	st, err := store.Open(cc.dir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	counts := make(map[string]int)
	if err := st.IterAll(1, func(_ string, r *report.ScanReport) error {
		counts[r.SHA256]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Verify(); err != nil {
		t.Fatalf("store verify after crash-resume: %v", err)
	}
	return counts
}

// sealedRows counts the rows in st's committed blocks.
func sealedRows(t *testing.T, st *store.Store) int64 {
	t.Helper()
	var rows int64
	for month := range st.ReplState() {
		blocks, err := st.BlocksSince(month, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			rows += int64(b.Rows)
		}
	}
	return rows
}

func cursorBytes(frontier time.Time) []byte {
	return []byte(strconv.FormatInt(frontier.Unix(), 10) + "\n")
}

// TestCrashResumeOrphanedTempCursor kills the collector after the
// checkpoint's temp file is durable but before the rename. Recovery
// must pick the orphaned .tmp frontier — the furthest durable one —
// and resume with no slice re-fetched and no slice lost.
func TestCrashResumeOrphanedTempCursor(t *testing.T) {
	cc := newCrashCampaign(t)
	killAt := cc.start.Add(16 * time.Minute)
	cc.runUntilKill(t, killAt, func(frontier time.Time) {
		if err := os.WriteFile(cc.cursor+".tmp", cursorBytes(frontier), 0o644); err != nil {
			t.Fatal(err)
		}
	})

	got, ok, err := (&feed.FileCursor{Path: cc.cursor}).Load()
	if err != nil || !ok || !got.Equal(killAt) {
		t.Fatalf("recovered frontier = %v, %v, %v; want %v", got, ok, err, killAt)
	}

	src, stats := cc.resume(t)
	// 14 one-minute slices remained past the recovered frontier.
	if stats.Polls != 14 || src.calls.Load() != 14 {
		t.Fatalf("resume polls = %d (source calls %d), want 14", stats.Polls, src.calls.Load())
	}
	counts := cc.rowCounts(t)
	for i := 0; i < 30; i++ {
		sha := fmt.Sprintf("cr-%03d", i)
		if counts[sha] != 1 {
			t.Fatalf("sample %s stored %d times, want exactly once", sha, counts[sha])
		}
	}
}

// TestCrashResumeTruncatedTempCursor kills the collector mid-write of
// the checkpoint temp file: the .tmp is torn and recovery falls back
// to the main cursor file's older frontier. The slice between the two
// frontiers was already durable in the store, so it is fetched and
// stored a second time — the documented at-worst-a-refetch outcome —
// but nothing is ever lost.
func TestCrashResumeTruncatedTempCursor(t *testing.T) {
	cc := newCrashCampaign(t)
	killAt := cc.start.Add(16 * time.Minute)
	cc.runUntilKill(t, killAt, func(frontier time.Time) {
		if err := os.WriteFile(cc.cursor+".tmp", cursorBytes(frontier)[:3], 0o644); err != nil {
			t.Fatal(err)
		}
	})

	// Recovery lands on the last durable frontier: one slice behind.
	wantFrontier := killAt.Add(-time.Minute)
	got, ok, err := (&feed.FileCursor{Path: cc.cursor}).Load()
	if err != nil || !ok || !got.Equal(wantFrontier) {
		t.Fatalf("recovered frontier = %v, %v, %v; want %v", got, ok, err, wantFrontier)
	}

	src, stats := cc.resume(t)
	if stats.Polls != 15 || src.calls.Load() != 15 {
		t.Fatalf("resume polls = %d (source calls %d), want 15", stats.Polls, src.calls.Load())
	}
	counts := cc.rowCounts(t)
	for i := 0; i < 30; i++ {
		sha := fmt.Sprintf("cr-%03d", i)
		want := 1
		if i == 15 {
			want = 2 // the re-fetched slice straddling the torn checkpoint
		}
		if counts[sha] != want {
			t.Fatalf("sample %s stored %d times, want %d", sha, counts[sha], want)
		}
	}
}

// TestCrashResumeTruncatedMainCursor covers debris outside Save's own
// reach — the main cursor file itself truncated (power loss tearing a
// data block) while a durable .tmp from the interrupted checkpoint
// survives. Recovery must still find the .tmp frontier and resume
// gap-free.
func TestCrashResumeTruncatedMainCursor(t *testing.T) {
	cc := newCrashCampaign(t)
	killAt := cc.start.Add(16 * time.Minute)
	cc.runUntilKill(t, killAt, func(frontier time.Time) {
		if err := os.WriteFile(cc.cursor+".tmp", cursorBytes(frontier), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(cc.cursor, 2); err != nil {
			t.Fatal(err)
		}
	})

	got, ok, err := (&feed.FileCursor{Path: cc.cursor}).Load()
	if err != nil || !ok || !got.Equal(killAt) {
		t.Fatalf("recovered frontier = %v, %v, %v; want %v", got, ok, err, killAt)
	}

	_, stats := cc.resume(t)
	if stats.Polls != 14 {
		t.Fatalf("resume polls = %d, want 14", stats.Polls)
	}
	counts := cc.rowCounts(t)
	for i := 0; i < 30; i++ {
		if sha := fmt.Sprintf("cr-%03d", i); counts[sha] != 1 {
			t.Fatalf("sample %s stored %d times, want exactly once", sha, counts[sha])
		}
	}
}

// TestCrashResumeTornJournalRecord kills the collector inside
// store.Sync: the journal record of the slice being checkpointed is
// torn mid-append, so that Sync never returned and the cursor still
// holds the previous frontier. Open must drop the torn record (counted,
// no RepairDir needed), and the resumed run re-fetch exactly that one
// slice — every sample stored exactly once.
func TestCrashResumeTornJournalRecord(t *testing.T) {
	cc := newCrashCampaign(t)
	killAt := cc.start.Add(16 * time.Minute)
	journal := filepath.Join(cc.dir, "checkpoint.log")
	cc.runUntilKill(t, killAt, func(time.Time) {
		fi, err := os.Stat(journal)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(journal, fi.Size()-9); err != nil {
			t.Fatal(err)
		}
	})

	src, stats := cc.resume(t)
	if n := cc.reg.SumCounters("store_journal_torn_tail_total"); n != 1 {
		t.Fatalf("reopen counted %d torn journal tails, want 1", n)
	}
	if stats.Polls != 15 || src.calls.Load() != 15 {
		t.Fatalf("resume polls = %d (source calls %d), want 15", stats.Polls, src.calls.Load())
	}
	counts := cc.rowCounts(t)
	for i := 0; i < 30; i++ {
		if sha := fmt.Sprintf("cr-%03d", i); counts[sha] != 1 {
			t.Fatalf("sample %s stored %d times, want exactly once", sha, counts[sha])
		}
	}
}
