package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// goldenDir is a committed store in the pre-sidecar on-disk format:
// monthly multi-member gzip partitions, metadata snapshot, stats
// sidecar — and no .idx files. It pins the compatibility promise that
// stores written by earlier builds keep opening and reading
// correctly, and that Open indexes them on the way in.
const goldenDir = "testdata/golden-v1"

// goldenDirV2 is the same logical dataset committed in block format
// v2 (columnar members, versioned sidecars) — the fixture every
// future build must keep reading identically.
const goldenDirV2 = "testdata/golden-v2"

// goldenFlushAt is the envelope index after which the golden
// generators flush mid-stream, so partitions hold multiple members.
const goldenFlushAt = 11

// goldenEnvelopes is the canonical dataset both golden fixtures (and
// the conformance variants) hold: 24 scans over 8 samples spanning
// two months. Deterministic and append-only — changing it invalidates
// the committed fixtures.
func goldenEnvelopes() []report.Envelope {
	envs := make([]report.Envelope, 24)
	for i := range envs {
		at := t0.Add(time.Duration(i%2) * 31 * 24 * time.Hour).Add(time.Duration(i) * time.Minute)
		envs[i] = envelope(fmt.Sprintf("gold%02d", i%8), at, i%6)
	}
	return envs
}

// goldenExpect computes, from first principles, the exact histories a
// correct store must serve for the golden dataset: rows normalized
// through the row codec's documented pipeline, reports sorted by
// analysis date (stable), metadata latest-write-wins. Both fixture
// tests compare decoded disk contents against this — golden rows, not
// just "no error".
func goldenExpect() map[string]*report.History {
	out := make(map[string]*report.History)
	for _, env := range goldenEnvelopes() {
		h, ok := out[env.Meta.SHA256]
		if !ok {
			h = &report.History{}
			out[env.Meta.SHA256] = h
		}
		h.Meta = metaFrom(env.Meta).toMeta()
		scan := env.Scan
		h.Reports = append(h.Reports, rowToReport(rowFromScan(&scan)))
	}
	for _, h := range out {
		sort.SliceStable(h.Reports, func(i, j int) bool {
			return h.Reports[i].AnalysisDate.Before(h.Reports[j].AnalysisDate)
		})
	}
	return out
}

// writeGoldenStore materializes the golden dataset into dir with the
// given store options (plus the mid-stream flush both fixtures share).
func writeGoldenStore(t *testing.T, dir string, opts ...Option) {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, env := range goldenEnvelopes() {
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
		if i == goldenFlushAt { // mid-stream flush: partitions get two members
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeV1Store converts the closed store in dir to block format v1,
// what builds before v2 wrote: every block is re-emitted as one gzip
// member of its rows' JSONL lines (the writer cuts at the same rows in
// both formats), stats.json is rewritten over the new partition sizes,
// and the sidecars go, since v1-era stores predate them.
func writeV1Store(t testing.TB, dir string) {
	t.Helper()
	parts, err := filepath.Glob(filepath.Join(dir, "scans-*.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range parts {
		ix, _, _, err := indexPartition(path, formatMax)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		for _, bm := range ix.snapshotBlocks() {
			var payload []byte
			if err := decodeBlockRows(path, bm, func(row *scanRow) {
				payload = append(appendScanRow(payload, rowToReport(*row)), '\n')
			}); err != nil {
				t.Fatal(err)
			}
			zw := bufpool.GetGzipWriter(&out)
			_, werr := zw.Write(payload)
			if cerr := zw.Close(); werr == nil {
				werr = cerr
			}
			bufpool.PutGzipWriter(zw)
			if werr != nil {
				t.Fatal(werr)
			}
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopen(t, dir)
	idx, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range idx {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
}

// reopen opens and closes the store in dir: Open indexes what lacks a
// sidecar, Close persists the sidecars and rewrites the snapshots.
func reopen(t testing.TB, dir string) {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeGoldenV1 materializes the golden dataset as a v1 store.
func writeGoldenV1(t *testing.T, dir string, opts ...Option) {
	t.Helper()
	writeGoldenStore(t, dir, opts...)
	writeV1Store(t, dir)
}

// TestV1HelperReproducesGoldenV1 pins writeV1Store as a faithful stand-in
// for the retired v1 writer: at the committed fixture's settings (one
// member per flush) it reproduces every file of testdata/golden-v1.
func TestV1HelperReproducesGoldenV1(t *testing.T) {
	dir := t.TempDir()
	writeGoldenV1(t, dir, WithBlockSize(1<<30))
	checkSameFiles(t, dir, goldenDir)
}

// checkSameFiles asserts that dir holds exactly fixture's files, byte
// for byte.
func checkSameFiles(t *testing.T, dir, fixture string) {
	t.Helper()
	if got, want := dirSums(t, dir), dirSums(t, fixture); !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from %s:\n got %v\nwant %v", dir, fixture, got, want)
	}
}

// dirSums maps every file in dir to the hex SHA-256 of its bytes.
func dirSums(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// TestFrozenFixturesUnchanged pins the committed store fixtures byte
// for byte. golden-v1 and golden-v2-legacy-idx are what earlier builds
// wrote and cannot be regenerated; golden-v2 is regenerated only by a
// deliberate format change (TestRegenerateGoldenFixture), which must
// update its sums here too.
func TestFrozenFixturesUnchanged(t *testing.T) {
	want := map[string]map[string]string{
		goldenDir: {
			"samples.jsonl.gz":       "365337b28c3935e2af74cd86d82b353a03f9b27329eaaae4ecfe34d2d39aaba9",
			"scans-2021-05.jsonl.gz": "5bfc585eafa222116675e9dd64efdb788deb4fe889d55e285b90e9a3ce34ebd0",
			"scans-2021-06.jsonl.gz": "bb51ff9c9c484ecc17909a60b4f4bf5348738254835b11569843fab2b4074e35",
			"stats.json":             "03b688ceb75d10078c5ec4c1eb23e9f43d81334943d924fa0f6a5d53b5515d00",
		},
		goldenDirV2: {
			"samples.jsonl.gz":       "365337b28c3935e2af74cd86d82b353a03f9b27329eaaae4ecfe34d2d39aaba9",
			"scans-2021-05.idx":      "c6267182263450716173738b55fae2700ccef1ea6881b1242ebef298fd4d02c6",
			"scans-2021-05.jsonl.gz": "d4edeffa2360f6080858cce15f9dfdf08eb718e8aaff87d29bac78d979ee2167",
			"scans-2021-06.idx":      "4265be776c4555d9bf8913ba4e76327ad9dae8a60e660e322f1a5026718cef65",
			"scans-2021-06.jsonl.gz": "75741a5bc6e515ab1c9ecc533a4adba8c351453286bf86bedb5195fd2c20c22d",
			"stats.json":             "57c84cedfa98102c73d10d49abd4a781b6ce5f785a4cd58fc4e00e944dcf89ec",
		},
		goldenDirLegacyIdx: {
			"samples.jsonl.gz":       "365337b28c3935e2af74cd86d82b353a03f9b27329eaaae4ecfe34d2d39aaba9",
			"scans-2021-05.idx":      "753cb77c56e8f622fc64a285f35da058eeb988fa067668b4fce8b3f931f66f1c",
			"scans-2021-05.jsonl.gz": "d4edeffa2360f6080858cce15f9dfdf08eb718e8aaff87d29bac78d979ee2167",
			"scans-2021-06.idx":      "053b9d11ca9cb2fe2e3c10ea1892c6776b28e287ef104f5ff343ebf8ee118534",
			"scans-2021-06.jsonl.gz": "75741a5bc6e515ab1c9ecc533a4adba8c351453286bf86bedb5195fd2c20c22d",
			"stats.json":             "57c84cedfa98102c73d10d49abd4a781b6ce5f785a4cd58fc4e00e944dcf89ec",
		},
	}
	for dir, sums := range want {
		if got := dirSums(t, dir); !reflect.DeepEqual(got, sums) {
			t.Errorf("%s drifted from its pinned bytes:\n got %v\nwant %v", dir, got, sums)
		}
	}
}

// TestRegenerateGoldenFixture rebuilds the committed golden-v2 fixture.
// It only runs when VTDYN_REGEN_GOLDEN=1 is set; generation is
// deterministic (fixed clock, sorted snapshots, zero gzip mtimes), so
// regenerating without a format change is a no-op diff. golden-v1 is
// frozen: no build writes v1 any more.
func TestRegenerateGoldenFixture(t *testing.T) {
	if os.Getenv("VTDYN_REGEN_GOLDEN") == "" {
		t.Skip("set VTDYN_REGEN_GOLDEN=1 to regenerate testdata/golden-v2")
	}
	// A small block target so partitions hold several columnar
	// members, sidecars kept.
	if err := os.RemoveAll(goldenDirV2); err != nil {
		t.Fatal(err)
	}
	writeGoldenStore(t, goldenDirV2, WithBlockSize(2<<10))
}

// TestGoldenV2WriterByteIdentity pins the write path against the
// committed v2 fixture at the byte level: regenerating the fixture's
// dataset with today's writer must reproduce every committed file
// exactly. The fixture was produced by the flush-time transcode
// writer, so this is the end-to-end half of the direct-builder
// byte-identity contract (the differential fuzzer is the per-block
// half): same cut boundaries, same column bytes, same gzip members,
// same sidecars.
func TestGoldenV2WriterByteIdentity(t *testing.T) {
	dir := t.TempDir()
	writeGoldenStore(t, dir, WithBlockSize(2<<10))
	entries, err := os.ReadDir(goldenDirV2)
	if err != nil {
		t.Fatalf("fixture %s missing (run with VTDYN_REGEN_GOLDEN=1 to create): %v", goldenDirV2, err)
	}
	for _, e := range entries {
		want, err := os.ReadFile(filepath.Join(goldenDirV2, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("writer did not produce fixture file %s: %v", e.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: freshly written bytes differ from the committed fixture", e.Name())
		}
	}
	fresh, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(entries) {
		t.Errorf("writer produced %d files, fixture holds %d", len(fresh), len(entries))
	}
}

// copyFixture clones a committed fixture into a scratch dir so tests
// can mutate (reindex, migrate) without touching testdata.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("fixture %s missing: %v", src, err)
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
	return dst
}

// copyGolden clones the committed v1 fixture.
func copyGolden(t *testing.T) string { return copyFixture(t, goldenDir) }

// snapshotReads captures everything the read API returns for a store:
// every sample's history, per-month iteration order, and stats.
func snapshotReads(t *testing.T, s *Store) (map[string]*report.History, map[string][]int, PartitionStats) {
	t.Helper()
	histories := make(map[string]*report.History)
	for _, sha := range s.SampleHashes() {
		h, err := s.Get(sha)
		if err != nil {
			t.Fatalf("Get(%s): %v", sha, err)
		}
		histories[sha] = h
	}
	iter := make(map[string][]int)
	err := s.IterAll(1, func(month string, r *report.ScanReport) error {
		iter[month] = append(iter[month], r.AVRank)
		return nil
	})
	if err != nil {
		t.Fatalf("IterAll: %v", err)
	}
	return histories, iter, s.TotalStats()
}

func TestGoldenPrePR2Compat(t *testing.T) {
	dir := copyGolden(t)
	s, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 2 {
		t.Fatalf("pre-sidecar fixture: Open rebuilt %d indexes, want one per month", rebuilds)
	}
	if got := s.NumSamples(); got != 8 {
		t.Fatalf("fixture samples = %d", got)
	}
	for _, sha := range s.SampleHashes() {
		getBySeeks(t, s, reg, sha)
	}
	wantHist, wantIter, wantStats := snapshotReads(t, s)
	// Exact decoded contents, not just no-error: the fixture bytes
	// must decode to precisely the golden rows, so silent format drift
	// in the v1 decoder is caught here.
	if want := goldenExpect(); !reflect.DeepEqual(wantHist, want) {
		t.Fatalf("v1 fixture decodes to wrong contents:\n got %+v\nwant %+v", wantHist, want)
	}
	if n, err := s.Verify(); err != nil || n != 24 {
		t.Fatalf("Verify over the rebuilt indexes: %d, %v", n, err)
	}
	// Reads write nothing; a Flush persists the rebuilt sidecars —
	// exactly the ones an explicit Reindex writes.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsMatchReindex(t, s)

	// The upgrade persists: a reopen trusts the new sidecars and reads
	// identically again.
	s2, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("upgraded store rebuilt %d indexes on reopen", rebuilds)
	}
	reHist, reIter, reStats := snapshotReads(t, s2)
	if !reflect.DeepEqual(wantHist, reHist) || !reflect.DeepEqual(wantIter, reIter) || wantStats != reStats {
		t.Fatal("reopened upgraded store diverges from the original reads")
	}
}

// TestGoldenV2Compat pins the committed v2 fixture: its columnar
// members and versioned sidecars must keep decoding to exactly the
// golden rows in every future build — the forward half of the
// compatibility promise.
func TestGoldenV2Compat(t *testing.T) {
	dir := copyFixture(t, goldenDirV2)
	s, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("v2 fixture: Open rebuilt %d indexes (sidecars are part of the fixture)", rebuilds)
	}
	sawV2 := false
	for _, month := range s.Months() {
		for _, bm := range s.index(month).snapshotBlocks() {
			switch blockVer(bm) {
			case FormatV2:
				sawV2 = true
			default:
				t.Fatalf("%s: fixture block %+v is not v2", month, bm)
			}
		}
	}
	if !sawV2 {
		t.Fatal("v2 fixture holds no blocks")
	}
	gotHist, _, _ := snapshotReads(t, s)
	if want := goldenExpect(); !reflect.DeepEqual(gotHist, want) {
		t.Fatalf("v2 fixture decodes to wrong contents:\n got %+v\nwant %+v", gotHist, want)
	}
	if n, err := s.Verify(); err != nil || n != 24 {
		t.Fatalf("Verify on v2 fixture: %d, %v", n, err)
	}

	// The same partition bytes must also read correctly with the
	// sidecars gone: Open rebuilds the indexes from the members alone
	// (sniff-dispatched per member), and the sidecars it then persists
	// are byte-identical to the committed fixture's.
	for _, m := range []string{"2021-05", "2021-06"} {
		if err := os.Remove(filepath.Join(dir, "scans-"+m+".idx")); err != nil {
			t.Fatal(err)
		}
	}
	s2, reg, rebuilds := openCounting(t, dir)
	if rebuilds != 2 {
		t.Fatalf("fixture without sidecars: Open rebuilt %d indexes, want 2", rebuilds)
	}
	for _, sha := range s2.SampleHashes() {
		getBySeeks(t, s2, reg, sha)
	}
	noIdxHist, _, _ := snapshotReads(t, s2)
	if !reflect.DeepEqual(noIdxHist, goldenExpect()) {
		t.Fatal("sidecar-less v2 read diverges from golden rows")
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	checkSidecarsEqualV2Fixture(t, dir)
}

// checkSidecarsEqualV2Fixture asserts that dir's sidecars are byte for
// byte the committed golden-v2 fixture's — what the current writer
// produces for the golden dataset.
func checkSidecarsEqualV2Fixture(t *testing.T, dir string) {
	t.Helper()
	for _, m := range []string{"2021-05", "2021-06"} {
		got, err := os.ReadFile(sidecarPath(dir, m))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(sidecarPath(goldenDirV2, m))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: sidecar differs from the committed v2 fixture's", m)
		}
	}
}
