package experiments

import (
	"fmt"
	"io"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/store"
)

// --- Table 2: dataset overview (collection pipeline end to end) -------

// MonthRow is one row of Table 2.
type MonthRow struct {
	Month       string
	Reports     int
	StoredBytes int64
	RawBytes    int64
}

// Table2Result reproduces Table 2 by running the full collection
// pipeline: workload → service → per-minute feed → collector →
// compressed store, then reading the store's monthly accounting.
type Table2Result struct {
	Rows         []MonthRow
	TotalReports int
	TotalSamples int
	TotalStored  int64
	TotalRaw     int64
	// CompressionRatio is raw/stored (paper: 10.06×).
	CompressionRatio float64
	// FeedStats is the collector's own accounting; its envelope count
	// must equal the store's report count (no loss, no duplication).
	FeedStats feed.Stats
}

// Table2DatasetOverview drives the pipeline over a ServiceSize
// workload. dir is the store directory: empty, or one this runner
// already collected into (see runPipelineStore).
func (r *Runner) Table2DatasetOverview(dir string) (*Table2Result, error) {
	// The pipeline run is shared with StoreScanCensus (storescan.go);
	// Table 2 only reads back the monthly accounting.
	fstats, err := r.runPipelineStore(dir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	res := &Table2Result{FeedStats: fstats, TotalSamples: st.NumSamples()}
	for _, month := range st.Months() {
		ps := st.Stats(month)
		res.Rows = append(res.Rows, MonthRow{
			Month:       month,
			Reports:     ps.Reports,
			StoredBytes: ps.StoredBytes,
			RawBytes:    ps.RawBytes,
		})
		res.TotalReports += ps.Reports
		res.TotalStored += ps.StoredBytes
		res.TotalRaw += ps.RawBytes
	}
	if res.TotalStored > 0 {
		res.CompressionRatio = float64(res.TotalRaw) / float64(res.TotalStored)
	}
	return res, nil
}

// Render prints the Table 2 analogue.
func (t *Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table 2: dataset overview (stored by month)")
	tb := newTable(w, 10, 10, 14, 14)
	tb.row("Month", "Reports", "Stored", "Raw")
	for _, row := range t.Rows {
		tb.row(row.Month, row.Reports, fmtBytes(row.StoredBytes), fmtBytes(row.RawBytes))
	}
	tb.row("Total", t.TotalReports, fmtBytes(t.TotalStored), fmtBytes(t.TotalRaw))
	fmt.Fprintf(w, "samples %d, collector polls %d, envelopes %d\n",
		t.TotalSamples, t.FeedStats.Polls, t.FeedStats.Envelopes)
	fmt.Fprintf(w, "compression ratio %.2fx (paper 10.06x with metadata dedup + compression)\n",
		t.CompressionRatio)
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
