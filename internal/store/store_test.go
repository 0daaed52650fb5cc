package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/report"
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
	scan := report.ScanReport{
		SHA256:       sha,
		FileType:     "Win32 EXE",
		AnalysisDate: at,
		Results:      results,
		AVRank:       rank,
		EnginesTotal: rank + 1,
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
		Scan: scan,
	}
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	env1 := envelope("aaa", t0, 3)
	env2 := envelope("aaa", t0.Add(48*time.Hour), 5)
	if err := s.Put(env1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(env2); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("aaa")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("reports = %d", len(h.Reports))
	}
	if !h.SortedByTime() {
		t.Fatal("history not sorted")
	}
	if h.Reports[0].AVRank != 3 || h.Reports[1].AVRank != 5 {
		t.Fatalf("ranks = %d, %d", h.Reports[0].AVRank, h.Reports[1].AVRank)
	}
	// Full fidelity: verdicts, versions, labels.
	r := h.Reports[0]
	if r.VerdictOf("Avast") != report.Benign {
		t.Fatal("benign verdict lost")
	}
	if r.VerdictOf("BitDefender") != report.Undetected {
		t.Fatal("undetected verdict lost")
	}
	if r.VerdictOf("Det00") != report.Malicious {
		t.Fatal("malicious verdict lost")
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Meta.TimesSubmitted != 1 || h.Meta.FileType != "Win32 EXE" {
		t.Fatalf("meta = %+v", h.Meta)
	}
}

func TestGetUnknown(t *testing.T) {
	s := openStore(t)
	if _, err := s.Get("nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestPutRejectsEmptyHash(t *testing.T) {
	s := openStore(t)
	if err := s.Put(report.Envelope{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMonthlyPartitioning(t *testing.T) {
	s := openStore(t)
	may := envelope("m1", time.Date(2021, 5, 10, 0, 0, 0, 0, time.UTC), 1)
	june := envelope("m1", time.Date(2021, 6, 10, 0, 0, 0, 0, time.UTC), 2)
	july := envelope("m2", time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC), 0)
	for _, e := range []report.Envelope{may, june, july} {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	months := s.Months()
	want := []string{"2021-05", "2021-06", "2021-07"}
	if len(months) != 3 {
		t.Fatalf("months = %v", months)
	}
	for i := range want {
		if months[i] != want[i] {
			t.Fatalf("months = %v", months)
		}
	}
	// Cross-partition Get.
	h, err := s.Get("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("cross-partition reports = %d", len(h.Reports))
	}
	if got := s.Stats("2021-05").Reports; got != 1 {
		t.Fatalf("may reports = %d", got)
	}
}

func TestCompressionRatio(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 500; i++ {
		env := envelope(fmt.Sprintf("h%04d", i), t0.Add(time.Duration(i)*time.Hour), 10)
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	total := s.TotalStats()
	if total.Reports != 500 {
		t.Fatalf("reports = %d", total.Reports)
	}
	if total.StoredBytes <= 0 || total.RawBytes <= 0 {
		t.Fatalf("accounting: %+v", total)
	}
	if ratio := total.CompressionRatio(); ratio < 2 {
		t.Fatalf("compression ratio = %.2f, want > 2", ratio)
	}
}

func TestMultiMemberAppend(t *testing.T) {
	// Flush mid-stream, then keep writing: the partition becomes a
	// multi-member gzip file that must still read back completely.
	s := openStore(t)
	if err := s.Put(envelope("x", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("x", t0.Add(time.Hour), 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("reports after multi-member append = %d", len(h.Reports))
	}
}

func TestReopenRestoresIndexAndStats(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(envelope(fmt.Sprintf("r%d", i), t0.Add(time.Duration(i)*time.Hour), i%5)); err != nil {
			t.Fatal(err)
		}
	}
	wantTotal := s.TotalStats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.NumSamples(); got != 20 {
		t.Fatalf("reopened samples = %d", got)
	}
	h, err := s2.Get("r7")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 1 || h.Reports[0].AVRank != 2 {
		t.Fatalf("reopened history = %+v", h.Reports)
	}
	got := s2.TotalStats()
	if got.Reports != wantTotal.Reports {
		t.Fatalf("reopened reports = %d, want %d", got.Reports, wantTotal.Reports)
	}
	if got.RawBytes != wantTotal.RawBytes {
		t.Fatalf("reopened raw bytes = %d, want %d", got.RawBytes, wantTotal.RawBytes)
	}
}

// A Close whose snapshot write fails leaves the directory as it found
// it: an unfsynced temp file is no newer version, so none may linger.
func TestCloseFailedSnapshotLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("a", t0, 1)); err != nil {
		t.Fatal(err)
	}
	// A directory squatting on the snapshot's name fails the rename.
	path := filepath.Join(dir, "samples.jsonl.gz")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed a failed snapshot write")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed snapshot write left its temp file: %v", err)
	}
}

func TestMonthKey(t *testing.T) {
	if got := MonthKey(time.Date(2022, 6, 30, 23, 59, 0, 0, time.UTC)); got != "2022-06" {
		t.Fatalf("MonthKey = %s", got)
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := openStore(t)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 50; i++ {
				env := envelope(fmt.Sprintf("c%d-%d", w, i), t0.Add(time.Duration(i)*time.Minute), 1)
				if err := s.Put(env); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.TotalStats().Reports; got != 400 {
		t.Fatalf("reports = %d", got)
	}
}

func TestSampleHashesAndMeta(t *testing.T) {
	s := openStore(t)
	for _, sha := range []string{"zz", "aa", "mm"} {
		if err := s.Put(envelope(sha, t0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	hashes := s.SampleHashes()
	if len(hashes) != 3 || hashes[0] != "aa" || hashes[2] != "zz" {
		t.Fatalf("hashes = %v", hashes)
	}
	meta, ok := s.Meta("mm")
	if !ok || meta.FileType != "Win32 EXE" {
		t.Fatalf("meta = %+v, %v", meta, ok)
	}
	if _, ok := s.Meta("nope"); ok {
		t.Fatal("missing sample returned meta")
	}
}

func TestStatsByType(t *testing.T) {
	s := openStore(t)
	if err := s.Put(envelope("a", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("a", t0.Add(time.Hour), 2)); err != nil {
		t.Fatal(err)
	}
	env := envelope("b", t0, 0)
	env.Meta.FileType = "TXT"
	env.Scan.FileType = "TXT"
	if err := s.Put(env); err != nil {
		t.Fatal(err)
	}
	byType, err := s.StatsByType()
	if err != nil {
		t.Fatal(err)
	}
	if got := byType["Win32 EXE"]; got.Samples != 1 || got.Reports != 2 {
		t.Fatalf("EXE stats = %+v", got)
	}
	if got := byType["TXT"]; got.Samples != 1 || got.Reports != 1 {
		t.Fatalf("TXT stats = %+v", got)
	}
}

func TestVerifyCleanStore(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 10; i++ {
		at := t0.Add(time.Duration(i) * 31 * 24 * time.Hour) // span months
		if err := s.Put(envelope(fmt.Sprintf("v%d", i), at, i%4)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("verified %d rows", n)
	}
}

// TestGetSeesUnflushedPut is the read-your-writes regression test: a
// Put buffered inside an open gzip member must be visible to an
// immediate Get, without an intervening Flush.
func TestGetSeesUnflushedPut(t *testing.T) {
	s := openStore(t)
	if err := s.Put(envelope("ryw", t0, 3)); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("ryw")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 1 || h.Reports[0].AVRank != 3 {
		t.Fatalf("Get after Put missed buffered row: %+v", h.Reports)
	}
	// And again mid-stream: a second Put into the same open member must
	// also be immediately visible — served from the writer's memory,
	// with nothing sealed by either read.
	if err := s.Put(envelope("ryw", t0.Add(time.Hour), 5)); err != nil {
		t.Fatal(err)
	}
	h, err = s.Get("ryw")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 || h.Reports[1].AVRank != 5 {
		t.Fatalf("Get after second Put: %+v", h.Reports)
	}
	if n := s.index(MonthKey(t0)).numBlocks(); n != 0 {
		t.Fatalf("Gets sealed %d blocks", n)
	}
	// All rows survive the final flush and a reopen untouched.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if h, err := s.Get("ryw"); err != nil || len(h.Reports) != 2 {
		t.Fatalf("after flush: %v", err)
	}
}

// TestGetHorizon pins that a Get fixes each month's pending rows and
// block horizon together: rows it copied from the open block that seal
// before it reads its blocks are returned once, from the copy, and the
// block now holding them is left unread.
func TestGetHorizon(t *testing.T) {
	var s *Store
	s, err := Open(t.TempDir(), WithCacheSize(0), withFoldStep(func(step string) error {
		if step == "get-view" {
			return s.Flush() // seal the rows the Get just copied
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i, at := range []time.Time{t0, t0.Add(time.Hour)} {
		if err := s.Put(envelope("hz", at, i+1)); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := s.Flush(); err != nil { // one sealed row, one pending
				t.Fatal(err)
			}
		}
	}
	h, err := s.Get("hz")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 || h.Reports[0].AVRank != 1 || h.Reports[1].AVRank != 2 {
		t.Fatalf("Get across a seal returned %d rows, want ranks 1, 2: %+v", len(h.Reports), h.Reports)
	}
	if n := s.index(MonthKey(t0)).numBlocks(); n != 2 {
		t.Fatalf("the Get's seal left %d blocks, want 2", n)
	}
}

// TestGetWaitsForCompressionOffTheWriterLock pins that a Get whose
// sample sits in a cut block still compressing waits for it without
// the month's writer lock: a Put to that month completes while the Get
// waits, and the Get then returns the queued row.
func TestGetWaitsForCompressionOffTheWriterLock(t *testing.T) {
	waiting := make(chan struct{})
	var s *Store
	s, err := Open(t.TempDir(), WithCacheSize(0), WithBlockSize(1), withFoldStep(func(step string) error {
		if step == "view-wait" {
			close(waiting)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Hold every compression slot, so the block each Put cuts stays
	// queued.
	for range cap(s.compressSem) {
		s.compressSem <- struct{}{}
	}
	release := sync.OnceFunc(func() {
		for range cap(s.compressSem) {
			<-s.compressSem
		}
	})
	defer release()
	if err := s.Put(envelope("queued", t0, 1)); err != nil {
		t.Fatal(err)
	}
	type result struct {
		h   *report.History
		err error
	}
	got := make(chan result, 1)
	go func() {
		h, err := s.Get("queued")
		got <- result{h, err}
	}()
	select {
	case <-waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("the Get never waited for the queued block")
	}
	put := make(chan error, 1)
	go func() { put <- s.Put(envelope("other", t0.Add(time.Hour), 2)) }()
	select {
	case err := <-put:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("a Put waited for the compression a Get was waiting for")
	}
	release()
	r := <-got
	if r.err != nil || len(r.h.Reports) != 1 || r.h.Reports[0].AVRank != 1 {
		t.Fatalf("Get(queued) = %+v, %v; want the one queued row", r.h, r.err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGetStableOrder pins Get's ordering contract: reports sort by
// AnalysisDate, and equal timestamps keep storage order — so repeated
// Gets always return the identical sequence.
func TestGetStableOrder(t *testing.T) {
	s := openStore(t)
	// Three scans at the same instant, distinguishable by rank, plus
	// one earlier and one later.
	at := t0.Add(time.Hour)
	for i, env := range []report.Envelope{
		envelope("ord", at, 1),
		envelope("ord", at, 2),
		envelope("ord", at, 3),
		envelope("ord", t0, 0),
		envelope("ord", at.Add(time.Hour), 4),
	} {
		if err := s.Put(env); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	wantRanks := []int{0, 1, 2, 3, 4}
	for trial := 0; trial < 5; trial++ {
		h, err := s.Get("ord")
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Reports) != len(wantRanks) {
			t.Fatalf("trial %d: %d reports", trial, len(h.Reports))
		}
		for i, r := range h.Reports {
			if r.AVRank != wantRanks[i] {
				t.Fatalf("trial %d: ranks %v at %d, want %v",
					trial, r.AVRank, i, wantRanks)
			}
		}
		// Vary the read path across trials: cached, uncached, indexed.
		switch trial {
		case 1:
			s.cache.invalidate("ord")
		case 2:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s.cache.invalidate("ord")
		}
	}
}

func TestIterAllCountsAndWorkerInvariance(t *testing.T) {
	s, err := Open(t.TempDir(), WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i%3) * 31 * 24 * time.Hour)
		if err := s.Put(envelope(fmt.Sprintf("ia%04d", i), at, i%5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{0, 1, 2, 8} {
		var mu sync.Mutex
		perMonth := map[string]int{}
		err := s.IterAll(workers, func(month string, r *report.ScanReport) error {
			if err := r.Validate(); err != nil {
				return err
			}
			mu.Lock()
			perMonth[month]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		total := 0
		for _, c := range perMonth {
			total += c
		}
		if total != n || len(perMonth) != 3 {
			t.Fatalf("workers=%d: saw %d rows in %d months", workers, total, len(perMonth))
		}
	}
}

func TestIterAllErrorPropagates(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 30; i++ {
		if err := s.Put(envelope(fmt.Sprintf("ie%02d", i), t0.Add(time.Duration(i)*time.Minute), 1)); err != nil {
			t.Fatal(err)
		}
	}
	wantErr := fmt.Errorf("stop here")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		err := s.IterAll(workers, func(string, *report.ScanReport) error {
			if calls.Add(1) == 5 {
				return wantErr
			}
			return nil
		})
		if !errors.Is(err, wantErr) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestStatsByTypeWorkersMatchesSerial(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 40; i++ {
		env := envelope(fmt.Sprintf("tw%02d", i), t0.Add(time.Duration(i)*time.Hour), 1)
		if i%3 == 0 {
			env.Meta.FileType = "PDF"
			env.Scan.FileType = "PDF"
		}
		if err := s.Put(env); err != nil {
			t.Fatal(err)
		}
	}
	serial, err := s.StatsByTypeWorkers(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := s.StatsByTypeWorkers(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("type stats diverge:\nserial   %+v\nparallel %+v", serial, parallel)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("ok", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a row whose AVRank contradicts its results, via a raw
	// writer (simulating on-disk corruption or a buggy writer).
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := envelope("bad", t0.Add(time.Hour), 1)
	bad.Scan.AVRank = 40 // results only contain 1 malicious verdict
	bad.Scan.EnginesTotal = 2
	// Put validates nothing about rank consistency (it stores what it
	// is given), so this lands on disk; Verify must flag it.
	if err := s2.Put(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Verify(); err == nil {
		t.Fatal("Verify accepted a corrupt row")
	}
}
