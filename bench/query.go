package main

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"vtdynamics/internal/core"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
)

// census is what the windowed and the full scan must answer; the
// expected value comes from materialising every row through IterAll.
type census struct {
	rows        int64
	byType      map[string]int64
	engines     map[string]store.EngineStats
	first, last int64
}

func (a census) equal(b census) bool {
	return a.rows == b.rows && a.first == b.first && a.last == b.last &&
		maps.Equal(a.byType, b.byType) && maps.Equal(a.engines, b.engines)
}

// analysis is what the internal/core pass over every history gives.
type analysis struct {
	Samples, Multi int
	Classes        [3]int // by core.Class
	StableWithin1  int
	Sweep          []core.CategoryCounts
	Flips          core.FlipCounts
	Correlations   int
	Groups         [][]string
}

// analyze runs the paper's per-sample analyses over histories given in
// SHA order. Both the measured pass (histories read from the store)
// and the ground truth (histories from the simulator) go through it.
func analyze(hs []*report.History, engines []string, tr *tracer, parent int) (analysis, error) {
	a := analysis{Samples: len(hs)}
	id := tr.start("core.series", parent, 0)
	series := make([]core.RankSeries, len(hs))
	for i, h := range hs {
		s := core.FromHistory(h)
		series[i] = s
		a.Classes[s.Classify()]++
		if s.Len() >= 2 {
			a.Multi++
		}
		if s.StabilizeWithin(1).Stable {
			a.StableWithin1++
		}
	}
	thresholds := make([]int, 50)
	for i := range thresholds {
		thresholds[i] = i + 1
	}
	a.Sweep = core.CategorySweep(series, thresholds)
	tr.end(id)

	id = tr.start("core.flip_matrix", parent, 0)
	fm := core.NewFlipMatrix()
	for _, h := range hs {
		fm.AddHistory(h)
	}
	a.Flips = fm.Total()
	tr.end(id)

	id = tr.start("core.correlations", parent, 0)
	defer tr.end(id)
	vm := core.NewVerdictMatrix(engines)
	for _, h := range hs {
		vm.AddHistory(h)
	}
	pairs, err := vm.Correlations()
	if err != nil {
		return a, err
	}
	a.Correlations = len(pairs)
	a.Groups = core.StrongGroups(pairs, 0.8)
	return a, nil
}

// truth is the expected output of every query phase.
type truth struct {
	shas     []string       // sorted
	reports  map[string]int // rows per sample
	window   census
	full     census
	analysis analysis
}

// analyzeWindow is the middle fifth of the collection span, so that
// zone maps can prune most blocks.
func analyzeWindow() (since, until int64) {
	start, end := simclock.CollectionStart.Unix(), simclock.CollectionEnd.Unix()
	return start + (end-start)*2/5, start + (end-start)*3/5
}

// groundTruth derives the expected answers: censuses from a
// row-materialising IterAll tally over st, analyses from the
// simulator's own histories.
func (e *env) groundTruth(st *store.Store) (*truth, error) {
	c := e.camp
	t := &truth{reports: make(map[string]int, len(c.samples))}
	hs := make([]*report.History, 0, len(c.samples))
	for _, s := range c.samples {
		t.shas = append(t.shas, s.SHA256)
	}
	sort.Strings(t.shas)
	for _, sha := range t.shas {
		h, err := c.svc.History(sha)
		if err != nil {
			return nil, err
		}
		t.reports[sha] = len(h.Reports)
		hs = append(hs, h)
	}
	var err error
	if t.analysis, err = analyze(hs, c.set.Names(), nil, 0); err != nil {
		return nil, err
	}

	since, until := analyzeWindow()
	newCensus := func() census {
		return census{byType: map[string]int64{}, engines: map[string]store.EngineStats{}}
	}
	t.window, t.full = newCensus(), newCensus()
	tally := func(c *census, r *report.ScanReport, at int64) {
		c.rows++
		c.byType[r.FileType]++
		if c.first == 0 || at < c.first {
			c.first = at
		}
		if at > c.last {
			c.last = at
		}
		for i := range r.Results {
			er := &r.Results[i]
			es := c.engines[er.Engine]
			es.Results++
			if er.Verdict == report.Malicious {
				es.Malicious++
			}
			if er.Label != "" {
				es.Labeled++
			}
			c.engines[er.Engine] = es
		}
	}
	err = st.IterAll(1, func(_ string, r *report.ScanReport) error {
		at := r.AnalysisDate.Unix()
		tally(&t.full, r, at)
		if at >= since && at <= until {
			tally(&t.window, r, at)
		}
		return nil
	})
	// The windowed scan carries no FirstLastAgg.
	t.window.first, t.window.last = 0, 0
	return t, err
}

// coldKeys is every sample hash once, in an order fixed by the seed.
// Drawing without replacement keeps phase (a) cold however large the
// store's history cache is.
func coldKeys(shas []string, seed int64) []string {
	keys := append([]string(nil), shas...)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
	})
	return keys
}

// regionQuery is the analyst's side: no writes. Its phases split the
// budget: (a) cold Gets 30 %, (b) hot Gets 10 %, (c) windowed census
// 10 %, (d) full census 25 %, (e) IterAll and the core analyses 25 %.
// Under another workload it runs only the phases behind end-to-end
// metrics: (a) 40 %, (c) 20 %, (e) 40 %.
func (e *env) regionQuery(budget float64) error {
	reg := obs.NewRegistry()
	id := e.tr.start("store.open", 0, 0)
	st, err := store.Open(e.baseDir, store.WithMetrics(reg))
	e.tr.end(id)
	if err != nil {
		return err
	}
	defer st.Close()
	if e.truth == nil {
		if e.truth, err = e.groundTruth(st); err != nil {
			return err
		}
	}
	tru := e.truth
	if e.probe {
		if err := e.phaseColdGets(st, reg, tru, 0.40*budget); err != nil {
			return err
		}
		if err := e.phaseWindowScan(st, tru, 0.20*budget); err != nil {
			return err
		}
		return e.phaseAnalysis(st, tru, 0.40*budget)
	}
	if err := e.phaseColdGets(st, reg, tru, 0.30*budget); err != nil {
		return err
	}
	if err := e.phaseHotGets(st, reg, tru, 0.10*budget); err != nil {
		return err
	}
	if err := e.phaseWindowScan(st, tru, 0.10*budget); err != nil {
		return err
	}
	if err := e.phaseCensus(st, tru, 0.25*budget); err != nil {
		return err
	}
	if err := e.phaseAnalysis(st, tru, 0.25*budget); err != nil {
		return err
	}
	e.res.add("store.cache_evictions", float64(reg.SumCounters("store_cache_evictions_total")))
	return nil
}

// phaseColdGets is (a): each sample at most once per pass over the
// key order, so every Get pays the index lookup and the block decode.
func (e *env) phaseColdGets(st *store.Store, reg *obs.Registry, tru *truth, budget float64) error {
	keys := coldKeys(tru.shas, e.seed)
	decodes0 := reg.SumCounters("store_block_decodes_total")
	months0 := reg.SumCounters("store_get_indexed_months_total")
	var lat []float64
	var failed int64
	root := e.tr.start("bench.get_cold", 0, 0)
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for len(lat) < len(keys) {
		t0 := time.Now()
		if t0.After(deadline) {
			break
		}
		sha := keys[e.coldNext%len(keys)]
		e.coldNext++
		id := e.tr.start("store.get", root, e.coldNext)
		h, err := st.Get(sha)
		e.tr.end(id)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil || len(h.Reports) != tru.reports[sha] {
			failed++
		}
	}
	e.tr.end(root)
	n := len(lat)
	e.res.ops(int64(n), failed)
	if failed > 0 {
		e.res.problem("query: %d of %d cold Gets returned the wrong history", failed, n)
	}
	e.sampleChunks("get_p50_us", lat, 0.50)
	e.res.sample("get_p90_us", percentile(lat, 0.90))
	e.res.sample("store.get_cold_us_p50", percentile(lat, 0.50))
	e.res.sample("store.get_cold_us_p99", percentile(lat, 0.99))
	e.res.sample("store.block_decodes_per_get",
		float64(reg.SumCounters("store_block_decodes_total")-decodes0)/float64(n))
	e.res.sample("store.indexed_months_per_get",
		float64(reg.SumCounters("store_get_indexed_months_total")-months0)/float64(n))
	return nil
}

// phaseHotGets is (b): a key set that fits the cache, warmed once and
// then read in rounds. One span covers a round; a span per Get would
// cost a third of a cached Get.
func (e *env) phaseHotGets(st *store.Store, reg *obs.Registry, tru *truth, budget float64) error {
	hot := tru.shas
	if len(hot) > e.sz.HotSet {
		hot = hot[:e.sz.HotSet]
	}
	for _, sha := range hot {
		if _, err := st.Get(sha); err != nil {
			return err
		}
	}
	hits0 := reg.SumCounters("store_cache_hits_total")
	gets0 := reg.SumCounters("store_gets_total")
	err := repeat(budget, 3, func() error {
		root := e.tr.start("bench.get_hot", 0, 0)
		id := e.tr.start("store.get_hot", root, 0)
		t0 := time.Now()
		for _, sha := range hot {
			if _, err := st.Get(sha); err != nil {
				return err
			}
		}
		e.res.sample("store.get_hot_ns", float64(time.Since(t0).Nanoseconds())/float64(len(hot)))
		e.tr.end(id)
		e.tr.end(root)
		return nil
	})
	if err != nil {
		return err
	}
	gets := reg.SumCounters("store_gets_total") - gets0
	hits := reg.SumCounters("store_cache_hits_total") - hits0
	e.res.ops(gets, gets-hits)
	if hits != gets {
		e.res.problem("query: %d cache hits for %d hot Gets", hits, gets)
	}
	e.res.sample("store.cache_hit_ratio", float64(hits)/float64(gets))
	return nil
}

// phaseWindowScan is (c): the mid-fifth windowed census, which zone
// maps prune and column projection narrows.
func (e *env) phaseWindowScan(st *store.Store, tru *truth, budget float64) error {
	since, until := analyzeWindow()
	var stats store.ScanStats
	warm := true // the first scan fills the scan engine's pools
	err := repeat(budget, 4, func() error {
		var (
			count store.CountAgg
			group store.GroupCountByType
			eng   store.EngineAgg
		)
		root := e.tr.start("bench.scan_window", 0, 0)
		id := e.tr.start("store.scan_window", root, 0)
		t0 := time.Now()
		var err error
		stats, err = st.Scan(store.Query{
			Since: since, Until: until,
			Cols:    store.ColFT | store.ColTime | store.ColResults,
			Workers: e.lanes,
		}, &store.MultiAgg{Aggs: []store.Agg{&count, &group, &eng}})
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; !warm {
			e.sample("scan_window_ms", ms)
			e.res.sample("store.scan_window_ms", ms)
		}
		warm = false
		e.tr.end(id)
		e.tr.end(root)
		if err != nil {
			return err
		}
		e.checkCensus("windowed census", census{rows: count.N, byType: group.Counts, engines: eng.Engines}, tru.window)
		return nil
	})
	if err != nil {
		return err
	}
	if stats.Blocks > 0 {
		e.res.sample("store.scan_pruned_frac", float64(stats.PrunedTotal())/float64(stats.Blocks))
	}
	e.res.sample("store.scan_compressed_bytes", float64(stats.CompressedBytes))
	e.res.sample("store.scan_columns_skipped", float64(stats.ColumnsSkipped))
	return nil
}

// phaseCensus is (d): the full StoreScanCensus kernel set over every
// block. Nothing can be pruned.
func (e *env) phaseCensus(st *store.Store, tru *truth, budget float64) error {
	return repeat(budget, 1, func() error {
		var (
			count store.CountAgg
			group store.GroupCountByType
			eng   store.EngineAgg
			flips store.FlipCountAgg
			span  store.FirstLastAgg
		)
		root := e.tr.start("bench.census", 0, 0)
		id := e.tr.start("store.census", root, 0)
		t0 := time.Now()
		_, err := st.Scan(store.Query{
			Cols:    store.ColSHA | store.ColTime | store.ColFT | store.ColResults,
			Workers: e.lanes,
		}, &store.MultiAgg{Aggs: []store.Agg{&count, &group, &eng, &flips, &span}})
		wall := time.Since(t0).Seconds()
		e.tr.end(id)
		e.tr.end(root)
		if err != nil {
			return err
		}
		e.res.sample("census_rows_per_s", float64(count.N)/wall)
		e.res.add("store.census_rows", float64(count.N))
		e.checkCensus("full census", census{
			rows: count.N, byType: group.Counts, engines: eng.Engines,
			first: span.First, last: span.Last,
		}, tru.full)
		return nil
	})
}

func (e *env) checkCensus(what string, got, want census) {
	e.res.ops(1, 0)
	if !got.equal(want) {
		e.res.ops(0, 1)
		e.res.problem("query: %s saw %d rows, the IterAll tally %d, or their groups differ", what, got.rows, want.rows)
	}
}

// phaseAnalysis is (e): IterAll, rows grouped into per-sample
// histories, then the internal/core analyses. The answers are checked
// against the same functions run over the simulator's histories, not
// against store.FlipCountAgg, which counts flips differently.
func (e *env) phaseAnalysis(st *store.Store, tru *truth, budget float64) error {
	return repeat(budget, 1, func() error {
		root := e.tr.start("bench.analysis", 0, 0)
		t0 := time.Now()
		id := e.tr.start("store.iter_all", root, 0)
		var mu sync.Mutex
		byHash := make(map[string]*report.History, len(tru.shas))
		err := st.IterAll(e.lanes, func(_ string, r *report.ScanReport) error {
			mu.Lock()
			h := byHash[r.SHA256]
			if h == nil {
				h = &report.History{}
				byHash[r.SHA256] = h
			}
			h.Reports = append(h.Reports, r)
			mu.Unlock()
			return nil
		})
		e.tr.end(id)
		if err != nil {
			return err
		}
		// Histories in SHA order, reports in time order: IterAll's
		// workers deliver blocks in no fixed order.
		id = e.tr.start("core.series", root, 0)
		hs := make([]*report.History, 0, len(byHash))
		for _, sha := range tru.shas {
			h := byHash[sha]
			if h == nil {
				continue
			}
			sort.SliceStable(h.Reports, func(i, j int) bool {
				return h.Reports[i].AnalysisDate.Before(h.Reports[j].AnalysisDate)
			})
			hs = append(hs, h)
		}
		e.tr.end(id)
		got, err := analyze(hs, e.camp.set.Names(), e.tr, root)
		wall := time.Since(t0).Seconds()
		e.tr.end(root)
		if err != nil {
			return err
		}
		e.sample("analysis_samples_per_s", float64(len(hs))/wall)
		e.res.add("core.samples", float64(got.Samples))
		e.res.add("core.multi_report_samples", float64(got.Multi))
		e.res.ops(1, 0)
		if !reflect.DeepEqual(got, tru.analysis) {
			e.res.ops(0, 1)
			e.res.problem("query: analyses over the store differ from ground truth: %s", diffAnalysis(got, tru.analysis))
		}
		return nil
	})
}

// diffAnalysis names the first field in which two analyses differ.
func diffAnalysis(got, want analysis) string {
	switch {
	case got.Samples != want.Samples || got.Multi != want.Multi:
		return fmt.Sprintf("samples %d/%d, want %d/%d", got.Samples, got.Multi, want.Samples, want.Multi)
	case got.Classes != want.Classes || got.StableWithin1 != want.StableWithin1:
		return fmt.Sprintf("class counts %v stable %d, want %v stable %d", got.Classes, got.StableWithin1, want.Classes, want.StableWithin1)
	case !reflect.DeepEqual(got.Sweep, want.Sweep):
		return "CategorySweep"
	case got.Flips != want.Flips:
		return fmt.Sprintf("FlipMatrix total %+v, want %+v", got.Flips, want.Flips)
	default:
		return fmt.Sprintf("strong groups %v, want %v", got.Groups, want.Groups)
	}
}
