package store

import (
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/obs"
)

// TestStoreMetricsExposition pins the store's block-pipeline series in
// the /metricsz Prometheus exposition: after an ingest-and-flush, the
// encode/compress histograms carry one observation per cut block.
func TestStoreMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithMetrics(reg), WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.Put(envelope("mtr", t0.Add(time.Duration(i)*time.Minute), i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"store_block_encode_seconds_count",
		"store_block_compress_seconds_count",
		"store_blocks_cut_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	cut := reg.Counter("store_blocks_cut_total").Value()
	if cut == 0 {
		t.Fatal("no blocks cut; exposition test is vacuous")
	}
	if h := reg.Histogram("store_block_encode_seconds", obs.DefBuckets); h.Snapshot().Count != cut {
		t.Errorf("encode histogram count %d, cut %d", h.Snapshot().Count, cut)
	}
	if h := reg.Histogram("store_block_compress_seconds", obs.DefBuckets); h.Snapshot().Count != cut {
		t.Errorf("compress histogram count %d, cut %d", h.Snapshot().Count, cut)
	}
}

// TestGetMovesNoScanCounter: Get runs its blocks on Scan's execute and
// merge but not Scan's accounting, so the store_scan_* series count
// Scan calls only.
func TestGetMovesNoScanCounter(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := Open(t.TempDir(), WithMetrics(reg), WithBlockSize(1<<10), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 64; i++ { // sealed blocks, and rows still pending
		if err := s.Put(envelope("gms", t0.Add(time.Duration(i)*time.Minute), i%5)); err != nil {
			t.Fatal(err)
		}
	}
	if h, err := s.Get("gms"); err != nil || len(h.Reports) != 64 {
		t.Fatalf("Get = %v, %v; want 64 reports", h, err)
	}
	if reg.Counter("store_block_decodes_total").Value() == 0 {
		t.Fatal("the Get decoded no sealed block; the check is vacuous")
	}
	for _, name := range []string{"store_scan_calls_total", "store_scan_blocks_total",
		"store_scan_blocks_scanned_total", "store_scan_rows_total", "store_columns_skipped_total"} {
		if v := reg.Counter(name).Value(); v != 0 {
			t.Errorf("%s = %d after a Get, want 0", name, v)
		}
	}
}
