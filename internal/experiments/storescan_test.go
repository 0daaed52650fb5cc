package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestStoreScanCensus(t *testing.T) {
	res, err := testRunner(t).StoreScanCensus(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows == 0 {
		t.Fatal("census saw no rows")
	}
	// The per-type counts must partition the row total.
	var typeRows int64
	for _, n := range res.ByType {
		typeRows += n
	}
	if typeRows != res.Rows {
		t.Fatalf("type counts sum to %d, census rows %d", typeRows, res.Rows)
	}
	// Every row carries a full roster of results, so each engine's
	// result count must equal the row count.
	for e, es := range res.Engines {
		if es.Results != res.Rows {
			t.Fatalf("engine %s has %d results for %d rows", e, es.Results, res.Rows)
		}
		if es.Malicious > es.Results {
			t.Fatalf("engine %s: malicious %d > results %d", e, es.Malicious, es.Results)
		}
	}
	if res.Pairs == 0 {
		t.Fatal("no (sample, engine) pairs")
	}
	if res.First == 0 || res.Last < res.First {
		t.Fatalf("bad span %d .. %d", res.First, res.Last)
	}
	// The middle-fifth window must engage zone pruning on a freshly
	// collected (v3-sidecar) store.
	if res.WindowStats.PrunedTotal() == 0 {
		t.Fatalf("windowed scan pruned nothing: %+v", res.WindowStats)
	}
	if res.WindowRows == 0 || res.WindowRows >= res.Rows {
		t.Fatalf("window matched %d of %d rows, want a proper subset", res.WindowRows, res.Rows)
	}

	var buf bytes.Buffer
	res.Render(&buf)
	for _, want := range []string{"verdict flips", "blocks pruned by zone maps", "Engine"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

// TestStoreCollectedOnce pins that Table 2 and storescan account one
// collection: on one runner both read the same dir and report the
// collector's envelope count, and another runner refuses that
// non-empty dir instead of collecting a second copy into it.
func TestStoreCollectedOnce(t *testing.T) {
	cfg := Config{Seed: 7, PopulationSize: 1, DynamicsSize: 1, ServiceSize: 300, CorrelationScans: 1}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	t2, err := r.Table2DatasetOverview(dir)
	if err != nil {
		t.Fatal(err)
	}
	census, err := r.StoreScanCensus(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := t2.FeedStats.Envelopes
	if n == 0 || t2.TotalReports != n || census.Rows != int64(n) {
		t.Fatalf("envelopes %d, Table 2 reports %d, census rows %d: want all equal and > 0",
			n, t2.TotalReports, census.Rows)
	}
	other, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Table2DatasetOverview(dir); err == nil {
		t.Fatal("a second runner collected into a non-empty store dir")
	}
	if _, err := other.StoreScanCensus(dir); err == nil {
		t.Fatal("a second runner's census collected into a non-empty store dir")
	}
}
