package store

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/report"
)

func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := envelope(fmt.Sprintf("bench%08d", i), t0.Add(time.Duration(i)*time.Second), 10)
		if err := s.Put(env); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPutParallel measures contended ingest throughput: many
// goroutines Put distinct samples concurrently, all landing in the
// same monthly partition — the collector's hot path.
func BenchmarkPutParallel(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var ctr atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := ctr.Add(1)
			env := envelope(fmt.Sprintf("bench%08d", i), t0.Add(time.Duration(i)*time.Second), 10)
			if err := s.Put(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const samples = 500
	for i := 0; i < samples; i++ {
		env := envelope(fmt.Sprintf("g%04d", i), t0.Add(time.Duration(i)*time.Minute), 5)
		if err := s.Put(env); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(fmt.Sprintf("g%04d", i%samples)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSamples sizes the read-path benchmarks: big enough that a full
// partition scan is visibly O(store) while an indexed Get stays
// O(result).
const benchSamples = 16384

func benchSHA(i int) string { return fmt.Sprintf("bench%06d", i%benchSamples) }

// buildReadStore fills dir with benchSamples single-report samples
// across two monthly partitions and flushes, so block indexes and
// sidecars are in place.
func buildReadStore(b *testing.B, dir string, opts ...Option) *Store {
	b.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]report.Envelope, 0, 512)
	for i := 0; i < benchSamples; i++ {
		at := t0.Add(time.Duration(i%2) * 31 * 24 * time.Hour).Add(time.Duration(i) * time.Second)
		batch = append(batch, envelope(benchSHA(i), at, 8))
		if len(batch) == cap(batch) {
			if err := s.PutBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.PutBatch(batch); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkGetIndexed measures the tentpole: an uncached Get that
// seeks straight to the blocks holding its sample — O(result), not
// O(store).
func BenchmarkGetIndexed(b *testing.B) {
	s := buildReadStore(b, b.TempDir(), WithCacheSize(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(benchSHA(i * 7919)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetIndexedV1 is the same lookup against a v1 (JSONL)
// store: the row-format baseline the columnar Get path is judged
// against.
func BenchmarkGetIndexedV1(b *testing.B) {
	dir := b.TempDir()
	if err := buildReadStore(b, dir).Close(); err != nil {
		b.Fatal(err)
	}
	writeV1Store(b, dir)
	s, err := Open(dir, WithCacheSize(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(benchSHA(i * 7919)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetPending measures read-your-writes on an open writer: a
// Put, then a Get of that sample, which decodes the row from the
// pending block's JSONL copy in memory — no block is sealed for it.
func BenchmarkGetPending(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sha := fmt.Sprintf("pend%08d", i)
		if err := s.Put(envelope(sha, t0.Add(time.Duration(i)*time.Second), 10)); err != nil {
			b.Fatal(err)
		}
		if h, err := s.Get(sha); err != nil || len(h.Reports) != 1 {
			b.Fatalf("Get(%s) = %v, %v", sha, h, err)
		}
	}
	b.StopTimer()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGetHot measures a cache hit: repeated Gets of a small hot
// set, each handing out a fresh Reports slice over the cached, shared
// *ScanReports (shareHistory) — no report is copied.
func BenchmarkGetHot(b *testing.B) {
	s := buildReadStore(b, b.TempDir())
	for i := 0; i < 16; i++ { // warm the hot set
		if _, err := s.Get(benchSHA(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(benchSHA(i % 16)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIterAll measures the full-store pass that Verify and
// StatsByType ride on, fanning blocks across GOMAXPROCS workers (so
// -cpu 1,4,8 sweeps the pool width).
func BenchmarkIterAll(b *testing.B) {
	s := buildReadStore(b, b.TempDir())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rows atomic.Int64
		err := s.IterAll(0, func(month string, r *report.ScanReport) error {
			rows.Add(1)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if rows.Load() != benchSamples {
			b.Fatalf("iterated %d rows", rows.Load())
		}
	}
}

// benchColReports builds one block's worth of scans with realistic
// vocabulary reuse (few file types and engines, moderately repeated
// SHAs and labels) for the columnar-encode twins below.
func benchColReports() []*report.ScanReport {
	reports := make([]*report.ScanReport, 0, 512)
	for i := 0; i < 512; i++ {
		r := &report.ScanReport{
			SHA256:       fmt.Sprintf("colbench%06d", i%64),
			FileType:     []string{"Win32 EXE", "PDF", "ELF", "Android", "ZIP", "HTML", "Win32 DLL", "XML"}[i%8],
			AnalysisDate: t0.Add(time.Duration(i) * 97 * time.Second),
			AVRank:       i % 7,
			EnginesTotal: 70,
		}
		for j := 0; j < 3; j++ {
			er := report.EngineResult{
				Engine:           fmt.Sprintf("Engine-%02d", (i+j)%12),
				Verdict:          report.Verdict(i%3 - 1),
				SignatureVersion: 20210500 + i%30,
			}
			if er.Verdict == report.Malicious {
				er.Label = fmt.Sprintf("Trojan.Gen.%d", (i+j)%30)
			}
			r.Results = append(r.Results, er)
		}
		reports = append(reports, r)
	}
	return reports
}

// BenchmarkDirectColumnarEncode measures the write path's per-block
// encode work: fold every row into column state, then seal.
func BenchmarkDirectColumnarEncode(b *testing.B) {
	reports := benchColReports()
	lineLens := make([]int, len(reports))
	var line []byte
	var raw int64
	for i, r := range reports {
		line = appendScanRow(line[:0], r)
		lineLens[i] = len(line)
		raw += int64(len(line) + 1)
	}
	var payload []byte
	b.ReportAllocs()
	b.SetBytes(raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := getColBuilder()
		for j, r := range reports {
			bl.addRow(r, lineLens[j])
		}
		payload = bl.seal(payload[:0])
		putColBuilder(bl)
	}
	if len(payload) == 0 {
		b.Fatal("empty payload")
	}
}

// BenchmarkSyncAtSize is the timing view of
// TestSyncJournalBytesIndependentOfStoreSize: one two-row poll plus its
// checkpoint on a store of 1k and of 10k samples. ns/op should not
// follow the store's size — before the checkpoint journal it did, by
// the whole-store snapshot every Sync rewrote.
func BenchmarkSyncAtSize(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("samples=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			buildClosedStore(b, dir, n)
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			// Start the session's change tracking outside the timer (nothing
			// was Put yet, so this folds nothing): every timed Sync appends.
			if err := s.Sync(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.PutBatch(syncWindow(i)); err != nil {
					b.Fatal(err)
				}
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
