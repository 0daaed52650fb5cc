package sync

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtapi"
)

var t0 = time.Date(2021, 5, 3, 12, 0, 0, 0, time.UTC)

func envelope(sha string, at time.Time, rank int) report.Envelope {
	results := []report.EngineResult{
		{Engine: "Avast", Verdict: report.Benign, SignatureVersion: 3},
		{Engine: "BitDefender", Verdict: report.Undetected, SignatureVersion: 9},
	}
	for i := 0; i < rank; i++ {
		results = append(results, report.EngineResult{
			Engine:           fmt.Sprintf("Det%02d", i),
			Verdict:          report.Malicious,
			Label:            "Trojan.Gen",
			SignatureVersion: 1,
		})
	}
	return report.Envelope{
		Meta: report.SampleMeta{
			SHA256:              sha,
			FileType:            "Win32 EXE",
			Size:                4096,
			FirstSubmissionDate: t0,
			LastAnalysisDate:    at,
			LastSubmissionDate:  at,
			TimesSubmitted:      1,
		},
		Scan: report.ScanReport{
			SHA256:       sha,
			FileType:     "Win32 EXE",
			AnalysisDate: at,
			Results:      results,
			AVRank:       rank,
			EnginesTotal: rank + 1,
		},
	}
}

// fillStore puts n envelopes spanning two months into st. The
// mid-campaign Sync journals a checkpoint and cuts nothing, so what a
// Close leaves — and a follower must reproduce — is the same as without
// it; the several gzip members per partition come from the callers'
// small block size.
func fillStore(t *testing.T, st *store.Store, prefix string, n, offset int) {
	t.Helper()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(offset+i) * time.Hour)
		if (offset+i)%2 == 1 {
			at = at.AddDate(0, 1, 0)
		}
		if err := st.Put(envelope(fmt.Sprintf("%s%03d", prefix, offset+i), at, (offset+i)%7)); err != nil {
			t.Fatal(err)
		}
		if i == n/2 {
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// buildLeaderStore creates and closes a two-month store in dir.
func buildLeaderStore(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := store.Open(dir, store.WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, st, "syn", n, 0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyInto copies the regular files of the fixture src into dst.
func copyInto(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirHashes maps regular files to SHA-256, skipping names in skip.
func dirHashes(t *testing.T, dir string, skip ...string) map[string]string {
	t.Helper()
	skipSet := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipSet[s] = true
	}
	out := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || skipSet[e.Name()] {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// assertParity compares every file byte-for-byte (by hash) between
// the leader and follower directories.
func assertParity(t *testing.T, leaderDir, followerDir string, skip ...string) {
	t.Helper()
	lh := dirHashes(t, leaderDir, skip...)
	fh := dirHashes(t, followerDir, skip...)
	for name, want := range lh {
		if got, ok := fh[name]; !ok {
			t.Errorf("follower missing %s", name)
		} else if got != want {
			t.Errorf("file %s differs: leader %s, follower %s", name, want[:12], got[:12])
		}
	}
	for name := range fh {
		if _, ok := lh[name]; !ok {
			t.Errorf("follower has extra file %s", name)
		}
	}
}

// leaderServer serves st, optionally behind the fault injector.
func leaderServer(t *testing.T, st *store.Store, faults *vtapi.FaultConfig, reg *obs.Registry) *httptest.Server {
	t.Helper()
	var h http.Handler = NewLeader(st, reg)
	if faults != nil {
		h = vtapi.FaultMiddleware(*faults, reg, h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// publish is what a collecting leader does between a follower's
// catch-ups: checkpoint like vtcollect (Sync journals, cuts nothing),
// then Flush, which seals every pending row into blocks the manifest
// lists. The store stays open and keeps ingesting afterwards.
func publish(t *testing.T, st *store.Store) {
	t.Helper()
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// assertServedParity is assertParity against a leader store that is
// still open: partitions and sidecars must match file for file, and the
// follower's snapshots must be the bytes the leader serves — its own
// copies on disk are as old as its last fold, and its checkpoint.log is
// local recovery state no follower receives.
func assertServedParity(t *testing.T, lst *store.Store, leaderDir, followerDir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(leaderDir, "checkpoint.log")); err != nil {
		t.Errorf("checkpointing leader has no journal: %v", err)
	}
	local := []string{"checkpoint.log", "samples.jsonl.gz", "stats.json"}
	assertParity(t, leaderDir, followerDir, local...)
	var samples bytes.Buffer
	if err := lst.WriteSamplesSnapshot(&samples); err != nil {
		t.Fatal(err)
	}
	stats, err := lst.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"samples.jsonl.gz": samples.Bytes(), "stats.json": stats} {
		if got, err := os.ReadFile(filepath.Join(followerDir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("follower's %s is not what the leader serves (%v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(followerDir, "checkpoint.log")); !os.IsNotExist(err) {
		t.Errorf("follower holds a checkpoint journal: %v", err)
	}
}

// assertNoSyncGoroutines fails if any goroutine is still parked in
// this package after the campaign tore down.
func assertNoSyncGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			// Test goroutines themselves sit in package functions; a
			// real leak is a goroutine our code spawned, which never
			// has the test runner on its stack.
			if strings.Contains(g, "vtdynamics/internal/sync.") &&
				!strings.Contains(g, "testing.tRunner") {
				leaked++
			}
		}
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines leaked in internal/sync:\n%s", leaked, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goldenV1Dir is the store package's committed v1 fixture: 24 scans of
// eight samples over two months, written by a build that wrote v1.
const goldenV1Dir = "../store/testdata/golden-v1"

// TestBackfillParity bootstraps an empty follower from a quiescent
// leader and requires a SHA-256 file-for-file diff of zero, for both
// block formats: a freshly written v2 store, and a copy of the v1
// fixture that a current build has opened (indexed) and closed.
func TestBackfillParity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T, dir string)
		sha     string
		reports int
	}{
		{"v1", func(t *testing.T, dir string) {
			copyInto(t, goldenV1Dir, dir)
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}, "gold03", 3},
		{"v2", func(t *testing.T, dir string) { buildLeaderStore(t, dir, 40) }, "syn003", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leaderDir := t.TempDir()
			tc.build(t, leaderDir)
			lst, err := store.Open(leaderDir)
			if err != nil {
				t.Fatal(err)
			}
			srv := leaderServer(t, lst, nil, obs.NewRegistry())

			followerDir := t.TempDir()
			fst, err := store.Open(followerDir)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			f := NewFollower(fst, srv.URL, reg)
			f.CursorPath = filepath.Join(t.TempDir(), "sync.cursor")
			stats, err := f.CatchUp(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.BlocksApplied == 0 {
				t.Fatal("backfill applied no blocks")
			}
			assertParity(t, leaderDir, followerDir)
			if got := reg.SumCounters("sync_blocks_applied_total"); int(got) != stats.BlocksApplied {
				t.Fatalf("applied counter %d, stats %d", got, stats.BlocksApplied)
			}
			if lag := reg.SumGauges("sync_cursor_lag_blocks"); lag != 0 {
				t.Fatalf("cursor lag %d after catch-up", lag)
			}

			// The replica must also be a working store whose sidecars
			// Open trusts as the follower left them.
			rreg := obs.NewRegistry()
			rst, err := store.Open(followerDir, store.WithMetrics(rreg))
			if err != nil {
				t.Fatal(err)
			}
			if n := rreg.SumCounters("store_index_rebuilds_total"); n != 0 {
				t.Fatalf("replica rebuilt %d indexes at Open", n)
			}
			if _, err := rst.Verify(); err != nil {
				t.Fatalf("replica verify: %v", err)
			}
			h, err := rst.Get(tc.sha)
			if err != nil || len(h.Reports) != tc.reports {
				t.Fatalf("replica read: %v %v", h, err)
			}
			assertNoSyncGoroutines(t)
		})
	}
}

// TestCatchUpIncremental catches a follower up, grows the leader, and
// catches up again: the second pass must transfer only the delta and
// end at parity with the leader's published state. The leader is one
// open store that keeps ingesting, checkpointing and publishing while
// it is served.
func TestCatchUpIncremental(t *testing.T) {
	leaderDir := t.TempDir()
	lst, err := store.Open(leaderDir, store.WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, lst, "inc", 20, 0)
	publish(t, lst)
	srv := leaderServer(t, lst, nil, obs.NewRegistry())

	followerDir := t.TempDir()
	fst, err := store.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(fst, srv.URL, obs.NewRegistry())
	first, err := f.CatchUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	assertServedParity(t, lst, leaderDir, followerDir)

	fillStore(t, lst, "inc", 20, 20)
	publish(t, lst)
	second, err := f.CatchUp(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.BlocksApplied == 0 || second.BlocksApplied >= first.BlocksApplied+second.BlocksApplied {
		t.Fatalf("second pass applied %d blocks (first %d): not incremental", second.BlocksApplied, first.BlocksApplied)
	}
	assertServedParity(t, lst, leaderDir, followerDir)
}

// TestLeaderOverKilledDirectory serves the directory a killed,
// checkpointing collector left behind. Open replays its journal, which
// puts the rows no block had sealed back in memory: the stats and
// samples a Leader serves count them, its manifest does not list them.
// One Flush — what vtsyncd's leader mode does before it listens — seals
// them, and the follower then receives a single consistent state: every
// acknowledged row, verifiable, at parity with what the leader serves.
// The subtest is named for the block format the collector writes.
func TestLeaderOverKilledDirectory(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		leaderDir := t.TempDir()
		opts := []store.Option{store.WithBlockSize(2 << 10)}
		killed, err := store.Open(leaderDir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, killed, "kld", 24, 0)
		if err := killed.Sync(); err != nil {
			t.Fatal(err)
		}
		// killed is abandoned un-Closed here.

		lst, err := store.Open(leaderDir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sealed := func() (rows int) {
			for month := range lst.ReplState() {
				blocks, err := lst.BlocksSince(month, 0, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range blocks {
					rows += b.Rows
				}
			}
			return rows
		}
		if got := lst.TotalStats().Reports; got != 24 || sealed() >= got {
			t.Fatalf("reopened with %d reports, %d of them sealed: want 24 with some only in the journal", got, sealed())
		}
		if err := lst.Flush(); err != nil {
			t.Fatal(err)
		}
		if sealed() != 24 {
			t.Fatalf("%d rows sealed after Flush, want 24", sealed())
		}
		srv := leaderServer(t, lst, nil, obs.NewRegistry())

		followerDir := t.TempDir()
		fst, err := store.Open(followerDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewFollower(fst, srv.URL, obs.NewRegistry()).CatchUp(context.Background()); err != nil {
			t.Fatal(err)
		}
		assertServedParity(t, lst, leaderDir, followerDir)
		rst, err := store.Open(followerDir)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := rst.Verify(); err != nil || n != 24 || rst.TotalStats() != lst.TotalStats() {
			t.Fatalf("replica of a killed directory: %d rows verified (%v), stats %+v, leader %+v",
				n, err, rst.TotalStats(), lst.TotalStats())
		}

		// The collector resumes over what the leader sealed: nothing twice.
		resumed, err := store.Open(leaderDir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := resumed.Verify(); err != nil || n != 24 {
			t.Fatalf("collector resumed after the leader's Flush: %d rows verified, %v", n, err)
		}
	})
}

// TestFaultyCampaignWithRestartParity is the tentpole proof: a
// follower syncs from a leader behind an injected-fault transport,
// is killed mid-campaign (store abandoned, cursor file truncated),
// restarts, and still converges to a byte-identical replica. The
// subtest is named for the block format the leader writes.
func TestFaultyCampaignWithRestartParity(t *testing.T) {
	t.Run("v2", func(t *testing.T) {
		leaderDir := t.TempDir()
		lst, err := store.Open(leaderDir, store.WithBlockSize(2<<10))
		if err != nil {
			t.Fatal(err)
		}
		fillStore(t, lst, "fty", 24, 0)
		publish(t, lst)
		faults := &vtapi.FaultConfig{Error500Rate: 0.2, Error503Rate: 0.2, Seed: 42}
		srv := leaderServer(t, lst, faults, obs.NewRegistry())

		followerDir := t.TempDir()
		cursorPath := filepath.Join(t.TempDir(), "sync.cursor")
		fst, err := store.Open(followerDir)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFollower(fst, srv.URL, obs.NewRegistry())
		f.CursorPath = cursorPath
		f.BatchBlocks = 2 // small batches: many faulted round trips
		stats, err := f.CatchUp(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Retries == 0 {
			t.Fatal("fault injector never fired; campaign proves nothing")
		}

		// Kill the follower mid-campaign: abandon its store without
		// Close and tear the cursor file mid-write.
		raw, err := os.ReadFile(cursorPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cursorPath, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}

		// The leader keeps ingesting while the follower is down.
		fillStore(t, lst, "fty", 24, 24)
		publish(t, lst)

		// Restart: reopen the replica, reconcile, resume.
		fst2, err := store.Open(followerDir)
		if err != nil {
			t.Fatal(err)
		}
		reg2 := obs.NewRegistry()
		f2 := NewFollower(fst2, srv.URL, reg2)
		f2.CursorPath = cursorPath
		f2.BatchBlocks = 2
		if _, err := f2.CatchUp(context.Background()); err != nil {
			t.Fatal(err)
		}
		if n := reg2.SumCounters("sync_cursor_recoveries_total"); n == 0 {
			t.Fatal("truncated cursor went unnoticed")
		}
		assertServedParity(t, lst, leaderDir, followerDir)

		// Full integrity pass over the replica.
		rst, err := store.Open(followerDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rst.Verify(); err != nil {
			t.Fatalf("replica verify: %v", err)
		}
		assertNoSyncGoroutines(t)
	})
}

// TestFollowerStaleCursor points a follower that is ahead of its
// leader at that leader: it must fail typed, not loop or panic.
func TestFollowerStaleCursor(t *testing.T) {
	bigDir := t.TempDir()
	buildLeaderStore(t, bigDir, 40)
	smallDir := t.TempDir()
	buildLeaderStore(t, smallDir, 8)

	big, err := store.Open(bigDir)
	if err != nil {
		t.Fatal(err)
	}
	small, err := store.Open(smallDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := leaderServer(t, small, nil, obs.NewRegistry())
	f := NewFollower(big, srv.URL, obs.NewRegistry())
	if _, err := f.CatchUp(context.Background()); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("err = %v, want ErrStaleCursor", err)
	}
}

// TestFollowerRetriesExhausted verifies the bounded-retry contract
// against a leader that always sheds load.
func TestFollowerRetriesExhausted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	t.Cleanup(srv.Close)
	fst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(fst, srv.URL, obs.NewRegistry())
	f.MaxAttempts = 3
	_, err = f.CatchUp(context.Background())
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// TestFollowerRejectsTamperedBlocks serves correct frames whose
// payload bytes were flipped: verify-then-apply must refuse them and
// count the failure.
func TestFollowerRejectsTamperedBlocks(t *testing.T) {
	leaderDir := t.TempDir()
	buildLeaderStore(t, leaderDir, 20)
	lst, err := store.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	inner := NewLeader(lst, obs.NewRegistry())
	tamper := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/blocks") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if len(body) > 40 {
			body[len(body)-10] ^= 0x41
		}
		w.Write(body)
	})
	srv := httptest.NewServer(tamper)
	t.Cleanup(srv.Close)

	fst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	f := NewFollower(fst, srv.URL, reg)
	_, err = f.CatchUp(context.Background())
	if !errors.Is(err, ErrVerifyFailed) {
		t.Fatalf("err = %v, want ErrVerifyFailed", err)
	}
	if reg.SumCounters("sync_verify_failures_total") == 0 {
		t.Fatal("verify failure not counted")
	}
}

// TestEmptyLeaderConverges: syncing from an empty leader yields an
// empty replica whose snapshot files match the leader's.
func TestEmptyLeaderConverges(t *testing.T) {
	leaderDir := t.TempDir()
	lst, err := store.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := lst.Close(); err != nil {
		t.Fatal(err)
	}
	lst, err = store.Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	srv := leaderServer(t, lst, nil, obs.NewRegistry())
	followerDir := t.TempDir()
	fst, err := store.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(fst, srv.URL, obs.NewRegistry())
	if _, err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertParity(t, leaderDir, followerDir)
}

// TestLeaderWithBadSidecarsReplicatesEveryMonth is the regression test
// for the replication hole: a leader opened on a store whose sidecar
// was lost, or is older than the partition it describes (a kill
// between a block commit and the sidecar write), must still list every
// month on disk in its manifest — Open rebuilds the index — so a
// follower converges to file-for-file parity instead of silently
// "converging" without the month.
func TestLeaderWithBadSidecarsReplicatesEveryMonth(t *testing.T) {
	const month = "2021-05"
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string, early []byte)
	}{
		{"sidecar deleted", func(t *testing.T, dir string, _ []byte) {
			if err := os.Remove(filepath.Join(dir, "scans-"+month+".idx")); err != nil {
				t.Fatal(err)
			}
		}},
		{"partition grown behind the sidecar", func(t *testing.T, dir string, early []byte) {
			if err := os.WriteFile(filepath.Join(dir, "scans-"+month+".idx"), early, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			leaderDir := t.TempDir()
			st, err := store.Open(leaderDir, store.WithBlockSize(2<<10))
			if err != nil {
				t.Fatal(err)
			}
			fillStore(t, st, "hole", 20, 0)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			// The sidecar as of this checkpoint — stale once more blocks land.
			early, err := os.ReadFile(filepath.Join(leaderDir, "scans-"+month+".idx"))
			if err != nil {
				t.Fatal(err)
			}
			fillStore(t, st, "hole", 20, 20)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, leaderDir, early)

			lreg := obs.NewRegistry()
			lst, err := store.Open(leaderDir, store.WithMetrics(lreg))
			if err != nil {
				t.Fatal(err)
			}
			if n := lreg.SumCounters("store_index_rebuilds_total"); n != 1 {
				t.Fatalf("leader rebuilt %d indexes at Open, want 1", n)
			}
			state := lst.ReplState()
			parts, err := filepath.Glob(filepath.Join(leaderDir, "scans-*.jsonl.gz"))
			if err != nil || len(parts) != 2 {
				t.Fatalf("leader partitions: %v %v", parts, err)
			}
			for _, p := range parts {
				m := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "scans-"), ".jsonl.gz")
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatal(err)
				}
				if ms, ok := state[m]; !ok || ms.FileSize != fi.Size() || ms.Blocks == 0 {
					t.Fatalf("manifest entry for %s = %+v (present %v), partition holds %d bytes", m, ms, ok, fi.Size())
				}
			}
			// The leader's next checkpoint heals its own sidecar.
			if err := lst.Sync(); err != nil {
				t.Fatal(err)
			}

			srv := leaderServer(t, lst, nil, obs.NewRegistry())
			followerDir := t.TempDir()
			fst, err := store.Open(followerDir)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFollower(fst, srv.URL, obs.NewRegistry())
			f.CursorPath = filepath.Join(t.TempDir(), "sync.cursor")
			if _, err := f.CatchUp(context.Background()); err != nil {
				t.Fatal(err)
			}
			assertParity(t, leaderDir, followerDir)
			if _, err := fst.Verify(); err != nil {
				t.Fatalf("follower verify: %v", err)
			}
		})
	}
}
