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
// rows for several blocks, closes it, and returns its directory.
func migrateFixture(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithFormat(FormatV1), WithBlockSize(2<<10))
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
	return dir
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
