package store

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

// appendRawMember appends one row to a partition as its own gzip
// member without going through the store — the shape an old build or
// external tool would leave behind.
func appendRawMember(t *testing.T, dir, month string, env report.Envelope) error {
	t.Helper()
	enc, _, err := encodeEnvelope(&env, nil)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "scans-"+month+".jsonl.gz"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(append(enc.line, '\n')); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	return f.Close()
}

// fillStore writes n samples with small rows and returns their hashes.
func fillStore(t *testing.T, s *Store, n int) []string {
	t.Helper()
	shas := make([]string, n)
	for i := 0; i < n; i++ {
		sha := fmt.Sprintf("ix%04d", i)
		shas[i] = sha
		env := envelope(sha, t0.Add(time.Duration(i)*time.Minute), i%6)
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
	}
	return shas
}

// openCounting opens dir with a private metrics registry and reports
// how many month indexes Open had to rebuild from partition bytes —
// the "did Open trust the sidecar?" observation.
func openCounting(t *testing.T, dir string, opts ...Option) (*Store, *obs.Registry, int64) {
	t.Helper()
	reg := obs.NewRegistry()
	s, err := Open(dir, append(opts, WithMetrics(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	return s, reg, reg.SumCounters("store_index_rebuilds_total")
}

// getBySeeks asserts that Get(sha) is served by block seeks (the
// indexed-months counter moves) and returns the history.
func getBySeeks(t *testing.T, s *Store, reg *obs.Registry, sha string) *report.History {
	t.Helper()
	before := reg.SumCounters("store_get_indexed_months_total")
	s.cache.invalidate(sha)
	h, err := s.Get(sha)
	if err != nil {
		t.Fatalf("Get(%s): %v", sha, err)
	}
	if reg.SumCounters("store_get_indexed_months_total") == before {
		t.Fatalf("Get(%s) was not served through the block index", sha)
	}
	return h
}

// checkSidecarsMatchReindex asserts that the sidecars dir holds right
// now are byte-identical to what an unconditional Reindex writes —
// i.e. whatever path produced them (writer, rebuild-on-open, append
// after rebuild) left no holes and no drift.
func checkSidecarsMatchReindex(t *testing.T, s *Store) {
	t.Helper()
	got := make(map[string][]byte)
	for _, month := range s.Months() {
		b, err := os.ReadFile(sidecarPath(s.dir, month))
		if err != nil {
			t.Fatalf("%s: sidecar not persisted: %v", month, err)
		}
		got[month] = b
	}
	if err := s.Reindex(); err != nil {
		t.Fatal(err)
	}
	for month, before := range got {
		after, err := os.ReadFile(sidecarPath(s.dir, month))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%s: sidecar on disk differs from what Reindex writes:\n disk    %s\n reindex %s", month, before, after)
		}
	}
}

func TestBlockCuttingProducesMultipleMembers(t *testing.T) {
	dir := t.TempDir()
	// Tiny block target: every few rows cut a member.
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	shas := fillStore(t, s, 200)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ix := s.index("2021-05")
	if ix == nil {
		t.Fatal("fresh partition has no index")
	}
	blocks := ix.snapshotBlocks()
	if len(blocks) < 4 {
		t.Fatalf("expected several blocks, got %d", len(blocks))
	}
	// Blocks tile the file exactly.
	fi, err := os.Stat(s.partPath("2021-05"))
	if err != nil {
		t.Fatal(err)
	}
	var off int64
	rows := 0
	for _, bm := range blocks {
		if bm.Offset != off {
			t.Fatalf("block offset %d, want %d", bm.Offset, off)
		}
		off += bm.Len
		rows += bm.Rows
	}
	if off != fi.Size() {
		t.Fatalf("blocks cover %d bytes, file has %d", off, fi.Size())
	}
	if rows != 200 {
		t.Fatalf("blocks hold %d rows, want 200", rows)
	}
	// Sidecar exists and every sample still reads back.
	if _, err := os.Stat(sidecarPath(dir, "2021-05")); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	for _, sha := range shas {
		h, err := s.Get(sha)
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Reports) != 1 {
			t.Fatalf("%s: %d reports", sha, len(h.Reports))
		}
	}
}

func TestReopenUsesSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 100)
	want := s.TotalStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("reopen rebuilt %d indexes instead of loading the sidecar", rebuilds)
	}
	if got := s2.TotalStats(); got.Reports != want.Reports || got.RawBytes != want.RawBytes {
		t.Fatalf("sidecar fast-path stats %+v, want %+v", got, want)
	}
	h, err := s2.Get("ix0042")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 1 || h.Reports[0].AVRank != 42%6 {
		t.Fatalf("history = %+v", h.Reports)
	}
}

// TestStaleSidecarFallsBack: a partition grown behind its sidecar's
// back makes Open fall back from the sidecar to a rebuild from the
// partition bytes — never to an unindexed month.
func TestStaleSidecarFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Grow the partition behind the sidecar's back (as an old build,
	// crash, or external tool would): FileSize no longer matches.
	if err := appendRawMember(t, dir, "2021-05", envelope("ix0007", t0.Add(90*time.Minute), 2)); err != nil {
		t.Fatal(err)
	}

	s2, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 1 {
		t.Fatalf("stale sidecar: Open rebuilt %d indexes, want 1", rebuilds)
	}
	// The rebuilt index sees every row, including the one appended
	// behind the sidecar's back, and serves it by block seeks.
	if h := getBySeeks(t, s2, reg, "ix0007"); len(h.Reports) != 2 {
		t.Fatalf("rebuilt index missed the appended row: %+v", h.Reports)
	}
	// The next Flush heals the sidecar on disk.
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsMatchReindex(t, s2)
	if _, _, rebuilds := openCounting(t, dir); rebuilds != 0 {
		t.Fatalf("healed sidecar not trusted on reopen: %d rebuilds", rebuilds)
	}
}

func TestCorruptSidecarIgnored(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecarPath(dir, "2021-05"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 1 {
		t.Fatalf("corrupt sidecar: Open rebuilt %d indexes, want 1", rebuilds)
	}
	if h := getBySeeks(t, s2, reg, "ix0003"); len(h.Reports) != 1 {
		t.Fatalf("read over rebuilt index: %+v", h)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsMatchReindex(t, s2)
}

func TestReindexMatchesWriterIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 120)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := s.index("2021-05")
	if live == nil {
		t.Fatal("no live index")
	}
	rebuilt, _, torn, err := indexPartition(s.partPath("2021-05"), formatMax)
	if err != nil || torn != nil {
		t.Fatal(err, torn)
	}
	if !reflect.DeepEqual(live.snapshotBlocks(), rebuilt.snapshotBlocks()) {
		t.Fatalf("rebuilt blocks diverge:\nlive    %+v\nrebuilt %+v",
			live.snapshotBlocks(), rebuilt.snapshotBlocks())
	}
	livePostings, rebuiltPostings := live.snapshotPostings(), rebuilt.snapshotPostings()
	for _, sha := range []string{"ix0000", "ix0055", "ix0119"} {
		if !reflect.DeepEqual(livePostings[sha], rebuiltPostings[sha]) {
			t.Fatalf("%s: postings diverge", sha)
		}
	}
}

func TestDeleteSidecarThenReindex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 80)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want, err := s.Get("ix0031")
	if err != nil {
		t.Fatal(err)
	}
	wantBlocks := s.index("2021-05").snapshotBlocks()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sidecarPath(dir, "2021-05")); err != nil {
		t.Fatal(err)
	}

	s2, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 1 {
		t.Fatalf("missing sidecar: Open rebuilt %d indexes, want 1", rebuilds)
	}
	// The index rebuilt at Open is the one the writer had, and reads
	// through it return exactly what the writer's index served.
	if got := s2.index("2021-05").snapshotBlocks(); !reflect.DeepEqual(got, wantBlocks) {
		t.Fatalf("rebuilt blocks diverge from the writer's:\n got %+v\nwant %+v", got, wantBlocks)
	}
	if got := getBySeeks(t, s2, reg, "ix0031"); !reflect.DeepEqual(got, want) {
		t.Fatalf("read over rebuilt index diverges:\n got %+v\nwant %+v", got, want)
	}
	// Nothing is on disk until a flush; then it is what Reindex writes.
	if _, err := os.Stat(sidecarPath(dir, "2021-05")); !os.IsNotExist(err) {
		t.Fatalf("sidecar written before any flush: %v", err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsMatchReindex(t, s2)
	// And the new sidecar survives a reopen.
	if _, _, rebuilds := openCounting(t, dir); rebuilds != 0 {
		t.Fatalf("healed sidecar not loaded on reopen: %d rebuilds", rebuilds)
	}
}

// TestAppendAfterRebuildContinuesIndex: appending to a month whose
// sidecar was lost continues the rebuilt index without holes — the
// old and the new rows are both served by block seeks, and the sidecar
// the flush writes is the one Reindex would.
func TestAppendAfterRebuildContinuesIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 20)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(sidecarPath(dir, "2021-05")); err != nil {
		t.Fatal(err)
	}
	s2, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 1 {
		t.Fatalf("missing sidecar: Open rebuilt %d indexes, want 1", rebuilds)
	}
	if err := s2.Put(envelope("late", t0.Add(time.Hour), 3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sha := range []string{"ix0000", "late"} {
		if h := getBySeeks(t, s2, reg, sha); len(h.Reports) != 1 {
			t.Fatalf("%s: %+v", sha, h)
		}
	}
	if n, err := s2.Verify(); err != nil || n != 21 {
		t.Fatalf("Verify after append: %d, %v", n, err)
	}
	checkSidecarsMatchReindex(t, s2)
}

// TestWriterIndexesBytesGrownBehindIt: bytes appended to a partition
// behind an open store's back (after its last flush) are indexed by
// the next writer for the month instead of poisoning the sidecar.
func TestWriterIndexesBytesGrownBehindIt(t *testing.T) {
	dir := t.TempDir()
	s, reg, _ := openCounting(t, dir)
	fillStore(t, s, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := appendRawMember(t, dir, "2021-05", envelope("ix0002", t0.Add(2*time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("ix0002", t0.Add(3*time.Hour), 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reg.SumCounters("store_index_rebuilds_total"); got != 1 {
		t.Fatalf("writer rebuilt %d indexes, want 1", got)
	}
	if h := getBySeeks(t, s, reg, "ix0002"); len(h.Reports) != 3 {
		t.Fatalf("want the original, the foreign, and the new row; got %+v", h.Reports)
	}
	checkSidecarsMatchReindex(t, s)
}

// TestOpenRefusesTornTail pins the Open/RepairDir split: Open never
// truncates — a partition whose tail does not decode is an error — and
// RepairDir is the only path that cuts it back.
func TestOpenRefusesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := s.partPath("2021-05")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a partition with a torn tail")
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(whole)-7) {
		t.Fatalf("Open touched the torn partition: %v %v", fi, err)
	}
	rs, err := RepairDir(dir)
	if err != nil || rs.TruncatedBytes == 0 {
		t.Fatalf("RepairDir: %+v, %v", rs, err)
	}
	s2, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("repaired store rebuilt %d indexes at Open", rebuilds)
	}
	if _, err := s2.Verify(); err != nil {
		t.Fatalf("Verify after repair: %v", err)
	}
}

// TestSidecarWriteFailureIsRetried: a sidecar write that fails must
// surface, leave the index dirty, and be retried by the next Sync —
// and must never leave torn JSON where the old sidecar was.
func TestSidecarWriteFailureIsRetried(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 10)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(sidecarPath(dir, "2021-05"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("more", t0.Add(time.Hour), 2)); err != nil {
		t.Fatal(err)
	}
	// Make the store directory unwritable for the sidecar: a directory
	// squatting on its temp path fails the tmp+rename write even for
	// root, which plain permission bits do not stop.
	blocker := sidecarPath(dir, "2021-05") + ".tmp"
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	// Sync cuts nothing and rewrites a sidecar only when a block sealed
	// since the last one. A Get reads the pending row from memory and
	// seals nothing; Flush seals it, which makes the sidecar due — and
	// Flush's own sidecar write is the first to fail.
	if h, err := s.Get("more"); err != nil || len(h.Reports) != 1 {
		t.Fatalf("Get of the pending row: %v, %v", h, err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush swallowed a failed sidecar write")
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync swallowed a failed sidecar write")
	}
	if now, err := os.ReadFile(sidecarPath(dir, "2021-05")); err != nil || !bytes.Equal(now, good) {
		t.Fatalf("failed write disturbed the previous sidecar: %v", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("retry Sync: %v", err)
	}
	checkSidecarsMatchReindex(t, s)
	if _, _, rebuilds := openCounting(t, dir); rebuilds != 0 {
		t.Fatalf("retried sidecar not trusted on reopen: %d rebuilds", rebuilds)
	}
}
