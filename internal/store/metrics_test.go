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
