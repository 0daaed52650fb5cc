package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// migrateFixture writes a v1 store spanning two months with enough
// rows for several blocks, indexed and closed, and returns its
// directory.
func migrateFixture(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i%2)*31*24*time.Hour + time.Duration(i)*time.Minute)
		if err := s.Put(envelope(fmt.Sprintf("mig%04d", i%10), at, i%6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	writeV1Store(t, dir)
	reopen(t, dir)
	return dir
}

// TestMigrateGoldenV1Bytes pins what Migrate writes for the committed
// v1 fixture, at the default block size and at a small one that cuts
// several blocks per month: the partitions the writer-based rewrite
// produces are the bytes earlier builds' migration wrote.
func TestMigrateGoldenV1Bytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
		want map[string]string
	}{
		{"default", nil, map[string]string{
			"2021-05": "3d31da8d6e4493a5533fc732beb21bee1498150cced620aa2d29f0322922126d",
			"2021-06": "f99fe70483dc2f2b3c15478d1ebb8f9727f75824945b4f47383bb4b58419d7f3",
		}},
		{"block=2KiB", []Option{WithBlockSize(2 << 10)}, map[string]string{
			"2021-05": "6b0af8ee7b78691a9017cf65d4184a2f44a2e8acfcd2e986459c730cccf8bd84",
			"2021-06": "74dc85f12ec2060824aef87dfffaf1c138f23c08455455d375575c84176cbdbc",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyGolden(t)
			s, err := Open(dir, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ms, err := s.Migrate(); err != nil || len(ms.Migrated) != 2 {
				t.Fatalf("Migrate = %+v, %v", ms, err)
			}
			sums := dirSums(t, dir)
			for month, want := range tc.want {
				if got := sums["scans-"+month+".jsonl.gz"]; got != want {
					t.Errorf("%s: migrated partition sha256 %s, want %s", month, got, want)
				}
			}
		})
	}
}

// TestMigrateCrashEveryStep stops Migrate after each of its durable
// steps in the first month it rewrites — the verified, fsynced temp
// file; the rename over the partition; the new sidecar — and reopens
// the directory as a restarted process would. Every month must then be
// whole in one format or the other, serve exactly the golden rows and
// verify, and a second Migrate must finish the job.
func TestMigrateCrashEveryStep(t *testing.T) {
	stopped := errors.New("killed mid-migrate")
	for _, step := range []string{"rewritten", "renamed", "sidecar"} {
		t.Run(step, func(t *testing.T) {
			dir := copyGolden(t)
			s, err := Open(dir, withFoldStep(func(name string) error {
				if name == step {
					return stopped
				}
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Migrate(); !errors.Is(err, stopped) {
				t.Fatalf("Migrate = %v, want the step hook's stop", err)
			}
			// s is abandoned un-Closed here, like a killed process.

			re, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			v2Months := 0
			for _, month := range re.Months() {
				vers := map[int]bool{}
				for _, bm := range re.index(month).snapshotBlocks() {
					vers[blockVer(bm)] = true
				}
				if len(vers) != 1 {
					t.Fatalf("%s holds block formats %v after the crash, want one", month, vers)
				}
				if vers[FormatV2] {
					v2Months++
				}
			}
			if want := map[string]int{"rewritten": 0, "renamed": 1, "sidecar": 1}[step]; v2Months != want {
				t.Fatalf("%d months rewritten after a crash at %q, want %d", v2Months, step, want)
			}
			if hist, _, _ := snapshotReads(t, re); !reflect.DeepEqual(hist, goldenExpect()) {
				t.Fatalf("crash at %q: store serves wrong rows:\n got %+v\nwant %+v", step, hist, goldenExpect())
			}
			if n, err := re.Verify(); err != nil || n != 24 {
				t.Fatalf("Verify after a crash at %q: %d, %v", step, n, err)
			}
			if ms, err := re.Migrate(); err != nil || len(ms.Migrated) != 2-v2Months {
				t.Fatalf("Migrate after a crash at %q = %+v, %v", step, ms, err)
			}
			if hist, _, _ := snapshotReads(t, re); !reflect.DeepEqual(hist, goldenExpect()) {
				t.Fatalf("finished migration serves wrong rows after a crash at %q", step)
			}
		})
	}
}

// readSnapshotFor captures everything a query client can observe from
// a store: every sample's full history, the per-type tallies, and the
// per-month report/raw accounting.
type storeSnapshot struct {
	histories map[string]string
	byType    map[string]TypeStats
	months    map[string][2]int64 // month -> {reports, rawBytes}
}

func snapshotStore(t *testing.T, s *Store) storeSnapshot {
	t.Helper()
	snap := storeSnapshot{
		histories: make(map[string]string),
		months:    make(map[string][2]int64),
	}
	for _, sha := range s.SampleHashes() {
		h, err := s.Get(sha)
		if err != nil {
			t.Fatalf("get %s: %v", sha, err)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%+v\n", h.Meta)
		for _, r := range h.Reports {
			fmt.Fprintf(&sb, "%+v\n", *r)
		}
		snap.histories[sha] = sb.String()
	}
	byType, err := s.StatsByType()
	if err != nil {
		t.Fatal(err)
	}
	snap.byType = byType
	for _, month := range s.Months() {
		ps := s.Stats(month)
		snap.months[month] = [2]int64{int64(ps.Reports), ps.RawBytes}
	}
	return snap
}

// TestMigrateEndToEnd proves the satellite claim: a v1 store migrated
// to v2 serves byte-identical Get and StatsByType results, every
// block really is v2 afterwards, and a second Migrate is a no-op.
func TestMigrateEndToEnd(t *testing.T) {
	dir := migrateFixture(t, 120)

	before, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotStore(t, before)

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := s.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Migrated) != 2 || len(ms.Skipped) != 0 {
		t.Fatalf("migrated %v skipped %v, want both months migrated", ms.Migrated, ms.Skipped)
	}
	for _, month := range s.Months() {
		for _, bm := range s.index(month).snapshotBlocks() {
			if blockVer(bm) != FormatV2 {
				t.Fatalf("%s: block %+v still v1 after migrate", month, bm)
			}
		}
	}

	// The migrated store — both the live handle and a fresh reopen —
	// must be indistinguishable from the v1 original to every query.
	if got := snapshotStore(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("live handle diverged after migrate:\n got %+v\nwant %+v", got, want)
	}
	reopened, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("migrated store rebuilt %d indexes on reopen", rebuilds)
	}
	if got := snapshotStore(t, reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store diverged after migrate:\n got %+v\nwant %+v", got, want)
	}

	// Idempotence: a second pass rewrites nothing.
	ms2, err := reopened.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms2.Migrated) != 0 || len(ms2.Skipped) != 2 {
		t.Fatalf("second migrate rewrote %v (skipped %v), want pure no-op", ms2.Migrated, ms2.Skipped)
	}

	// And no temp files were left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".migrate") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestMigrateUnindexedStore migrates a store whose sidecars were
// deleted (the pre-sidecar shape): Migrate runs over the indexes Open
// rebuilt and leaves fresh v2 sidecars a reopen trusts.
func TestMigrateUnindexedStore(t *testing.T) {
	dir := migrateFixture(t, 60)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".idx") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, _, rebuilds := openCounting(t, dir)
	if rebuilds != 2 {
		t.Fatalf("sidecar-less store: Open rebuilt %d indexes, want 2", rebuilds)
	}
	want := snapshotStore(t, s)
	ms, err := s.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Migrated) != 2 {
		t.Fatalf("migrated %v, want both months", ms.Migrated)
	}
	if got := snapshotStore(t, s); !reflect.DeepEqual(got, want) {
		t.Fatalf("migrate of sidecar-less store diverged:\n got %+v\nwant %+v", got, want)
	}
	reopened, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("migrated store rebuilt %d indexes on reopen", rebuilds)
	}
	if got := snapshotStore(t, reopened); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened store diverged after migrate:\n got %+v\nwant %+v", got, want)
	}
}

// TestMigrateFreshV2StoreIsNoop pins idempotence from the other side:
// a store born v2 is never rewritten.
func TestMigrateFreshV2StoreIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Put(envelope(fmt.Sprintf("v2%04d", i), t0.Add(time.Duration(i)*time.Minute), i%6)); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := s.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Migrated) != 0 || len(ms.Skipped) != 1 {
		t.Fatalf("fresh v2 store: migrated %v skipped %v", ms.Migrated, ms.Skipped)
	}
}

// TestMigrateContinuesAfterAppend covers mixed-format months: new v2
// rows appended to a migrated month coexist with its blocks, and a
// later migrate still skips the (fully v2) month.
func TestMigrateContinuesAfterAppend(t *testing.T) {
	dir := migrateFixture(t, 30)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Migrate(); err != nil {
		t.Fatal(err)
	}
	// Append post-migration rows (v2 writer) to the migrated months.
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i%2)*31*24*time.Hour + time.Duration(100+i)*time.Minute)
		if err := s.Put(envelope(fmt.Sprintf("mig%04d", i%10), at, i%6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("mig0003")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) == 0 {
		t.Fatal("no reports after append to migrated store")
	}
	ms, err := s.Migrate()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms.Migrated) != 0 {
		t.Fatalf("append of v2 rows retriggered migration of %v", ms.Migrated)
	}
	if errors.Is(err, ErrUnknownSample) {
		t.Fatal("unreachable")
	}
}
