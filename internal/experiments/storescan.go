package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtsim"
)

// --- Store-backed dynamics census (pushdown scan engine) -------------

// StoreScanResult is the label-dynamics census computed from the
// collected store itself — not from re-running the simulator — via
// the pushdown scan engine: one full-range scan for the census and
// one mid-campaign windowed scan to exercise zone-map pruning.
//
// The paper's measurements are all derived from its collected report
// corpus; this experiment is the repo's analogue of that workflow,
// and its cross-checks tie the store-derived numbers back to the
// collector's own accounting.
type StoreScanResult struct {
	// Full-range census.
	Rows    int64
	ByType  map[string]int64
	Engines map[string]store.EngineStats
	Flips   int64
	Pairs   int64
	// First/Last are the earliest/latest analysis timestamps.
	First, Last int64

	// Windowed scan (the middle fifth of the collection span).
	WindowSince, WindowUntil int64
	WindowRows               int64
	WindowStats              store.ScanStats
}

// runPipelineStore replays the ServiceSize workload through the
// feed→collector→store pipeline into dir — the one store Table 2 and
// StoreScanCensus both account — and returns the collector stats. It
// collects into each directory once per runner: a second call on the
// same dir returns the first call's stats, and a non-empty dir this
// runner did not collect into is an error rather than a second copy.
func (r *Runner) runPipelineStore(dir string) (feed.Stats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dir = filepath.Clean(dir)
	if fstats, ok := r.collected[dir]; ok {
		return fstats, nil
	}
	if ents, err := os.ReadDir(dir); err == nil && len(ents) > 0 {
		return feed.Stats{}, fmt.Errorf("experiments: store dir %s is not empty and was not collected by this runner", dir)
	}
	samples, err := sampleset.Generate(sampleset.Config{
		Seed:       r.cfg.Seed + 4,
		NumSamples: r.cfg.ServiceSize,
	})
	if err != nil {
		return feed.Stats{}, err
	}
	clock := simclock.NewSim(simclock.CollectionStart)
	svc := vtsim.NewService(r.set, clock)
	if err := vtsim.RunWorkload(svc, clock, samples); err != nil {
		return feed.Stats{}, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return feed.Stats{}, err
	}
	// The store is a BatchSink, so each slice commits under one
	// partition-lock acquisition; Workers > 1 overlaps feed fetches
	// while the ordered commit keeps the store contents byte-identical
	// to a serial run (asserted by the determinism suite).
	collector := feed.NewCollector(
		feed.SourceFunc(func(ctx context.Context, from, to time.Time) ([]report.Envelope, error) {
			return svc.FeedBetween(from, to), nil
		}),
		st,
	)
	collector.Workers = r.cfg.Workers
	// Hour-resolution polling keeps the 14-month window tractable;
	// slice semantics are identical to the paper's per-minute loop.
	fstats, err := collector.RunHourly(context.Background(),
		simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		st.Close()
		return feed.Stats{}, err
	}
	if err := st.Close(); err != nil {
		return feed.Stats{}, err
	}
	r.collected[dir] = fstats
	return fstats, nil
}

// StoreScanCensus collects the pipeline store into dir (unless this
// runner already has) and derives the dynamics census from it through
// store.Scan.
func (r *Runner) StoreScanCensus(dir string) (*StoreScanResult, error) {
	fstats, err := r.runPipelineStore(dir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()

	// Full-range census: every kernel in one pass over one decode of
	// each block.
	var (
		count store.CountAgg
		group store.GroupCountByType
		eng   store.EngineAgg
		flips store.FlipCountAgg
		span  store.FirstLastAgg
	)
	fullStats, err := st.Scan(store.Query{
		Cols:    store.ColSHA | store.ColTime | store.ColFT | store.ColResults,
		Workers: r.cfg.Workers,
	}, &store.MultiAgg{Aggs: []store.Agg{&count, &group, &eng, &flips, &span}})
	if err != nil {
		return nil, err
	}
	// The census must account for exactly what the collector stored,
	// and an unfiltered scan must decode every block it considered.
	if count.N != int64(fstats.Envelopes) {
		return nil, fmt.Errorf("storescan: census saw %d rows, collector stored %d", count.N, fstats.Envelopes)
	}
	if fullStats.Scanned+fullStats.Pruned[store.PruneEmpty] != fullStats.Blocks {
		return nil, fmt.Errorf("storescan: full scan skipped non-empty blocks: %+v", fullStats)
	}

	// Windowed scan: the middle fifth of the collection span, where
	// zone maps prune the out-of-window blocks before decompression.
	cSpan := simclock.CollectionEnd.Unix() - simclock.CollectionStart.Unix()
	since := simclock.CollectionStart.Unix() + cSpan*2/5
	until := simclock.CollectionStart.Unix() + cSpan*3/5
	var wcount store.CountAgg
	wStats, err := st.Scan(store.Query{
		Since:   since,
		Until:   until,
		Cols:    store.ColTime,
		Workers: r.cfg.Workers,
	}, &wcount)
	if err != nil {
		return nil, err
	}
	if wStats.PrunedTotal()+wStats.Scanned != wStats.Blocks {
		return nil, fmt.Errorf("storescan: pruning identity broken: %d pruned + %d scanned != %d blocks",
			wStats.PrunedTotal(), wStats.Scanned, wStats.Blocks)
	}

	return &StoreScanResult{
		Rows:        count.N,
		ByType:      group.Counts,
		Engines:     eng.Engines,
		Flips:       flips.Flips,
		Pairs:       flips.Pairs,
		First:       span.First,
		Last:        span.Last,
		WindowSince: since,
		WindowUntil: until,
		WindowRows:  wcount.N,
		WindowStats: wStats,
	}, nil
}

// Render prints the census and the windowed scan's pruning report.
func (s *StoreScanResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Store-backed dynamics census (pushdown scan engine)")
	fmt.Fprintf(w, "scans %d, span %s .. %s\n", s.Rows,
		time.Unix(s.First, 0).UTC().Format("2006-01-02"),
		time.Unix(s.Last, 0).UTC().Format("2006-01-02"))
	fmt.Fprintf(w, "verdict flips %d across %d (sample, engine) pairs (%.4f flips/pair)\n",
		s.Flips, s.Pairs, float64(s.Flips)/float64(max(s.Pairs, 1)))

	types := make([]string, 0, len(s.ByType))
	for ft := range s.ByType {
		types = append(types, ft)
	}
	sort.Slice(types, func(i, j int) bool {
		if s.ByType[types[i]] != s.ByType[types[j]] {
			return s.ByType[types[i]] > s.ByType[types[j]]
		}
		return types[i] < types[j]
	})
	tb := newTable(w, 22, 10)
	tb.row("File type", "Scans")
	for i, ft := range types {
		if i == 10 {
			break
		}
		tb.row(ft, s.ByType[ft])
	}

	engines := make([]string, 0, len(s.Engines))
	for e := range s.Engines {
		engines = append(engines, e)
	}
	sort.Slice(engines, func(i, j int) bool {
		if s.Engines[engines[i]].Malicious != s.Engines[engines[j]].Malicious {
			return s.Engines[engines[i]].Malicious > s.Engines[engines[j]].Malicious
		}
		return engines[i] < engines[j]
	})
	tb = newTable(w, 22, 10, 10, 10)
	tb.row("Engine", "Results", "Malicious", "Labeled")
	for i, e := range engines {
		if i == 10 {
			break
		}
		es := s.Engines[e]
		tb.row(e, es.Results, es.Malicious, es.Labeled)
	}

	st := s.WindowStats
	fmt.Fprintf(w, "windowed scan %s .. %s: %d rows; %d/%d blocks pruned by zone maps, %d scanned, %d KiB gunzipped, %d column segments skipped\n",
		time.Unix(s.WindowSince, 0).UTC().Format("2006-01-02"),
		time.Unix(s.WindowUntil, 0).UTC().Format("2006-01-02"),
		s.WindowRows, st.PrunedTotal(), st.Blocks, st.Scanned,
		st.CompressedBytes/1024, st.ColumnsSkipped)
}
