// Package experiments regenerates every table and figure of the
// paper's evaluation from the simulated pipeline. Each experiment is
// a method on Runner returning a typed result with a Render method
// that prints the same rows/series the paper reports; EXPERIMENTS.md
// records paper-vs-measured for each.
//
// Experiment index (see DESIGN.md §3 for the full mapping):
//
//	Table1APIUpdateRules     Table 1   API field-update rules
//	Table2DatasetOverview    Table 2   monthly feed → store accounting
//	Table3FileTypeDist       Table 3   file-type distribution
//	Figure1ReportsCDF        Fig. 1    CDF of reports per sample
//	Figure2StableDynamic     Fig. 2    report-count CDF by class (+Obs. 1)
//	Figure3StableAVRank      Fig. 3    AV-Rank CDF of stable samples
//	Figure4StableTimeSpan    Fig. 4    stable span by AV-Rank
//	Figure5DeltaCDF          Fig. 5    δ and Δ CDFs
//	Figure6DeltaByType       Fig. 6    δ/Δ boxplots per file type
//	Figure7DiffVsInterval    Fig. 7    rank diff vs. scan interval
//	Figure8Categories        Fig. 8    white/black/gray sweep (all + PE)
//	Figure9LabelStability    Fig. 9    label stabilization vs. threshold
//	Observation8Stability    Obs. 8    AV-Rank stabilization, r=0..5
//	Figure10FlipRatios       Fig. 10   flip ratio per engine × type
//	Figure11Correlation      Fig. 11   strong engine correlations
//	Figure12PerTypeGroups    Fig. 12 / Tables 4–8 per-type groups
//	Section71Flips           §7.1.1    flip census incl. hazard flips
//	Section55FlipCauses      §5.5      update-coincident flips
//
// Every pass over dataset S and over the multi-report corpus scans
// through scanEach, the package's one worker pool. The Runner memoises
// what several experiments share: the rank corpora, the one flip pass
// over S that Fig. 10, §7.1 and §5.5 all read, and the collection into
// each store directory that Table 2 and storescan both account.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"vtdynamics/internal/core"
	"vtdynamics/internal/engine"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/vtsim"
)

// Config sizes the experiments. Zero values select defaults that run
// the full suite in tens of seconds on a laptop.
type Config struct {
	// Seed drives the whole pipeline; equal seeds reproduce results
	// exactly.
	Seed int64
	// PopulationSize is the sample count for population-level
	// experiments (Table 3, Figure 1). Default 400_000.
	PopulationSize int
	// DynamicsSize is the multi-report sample count for dynamics
	// experiments (dataset S analogue). Default 60_000.
	DynamicsSize int
	// ServiceSize is the sample count for the service/feed/store
	// experiments (Tables 1–2), which run the full HTTP-shaped
	// pipeline. Default 8_000.
	ServiceSize int
	// CorrelationScans caps the number of scan rows fed to the
	// engine-correlation matrices. Default 40_000.
	CorrelationScans int
	// Workers is the scan parallelism, and the feed-collector fetch
	// concurrency in the Table 2 pipeline. Default GOMAXPROCS. The
	// worker count never changes results, only wall time (proved by
	// the internal/concurrency determinism harness).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.PopulationSize == 0 {
		c.PopulationSize = 400_000
	}
	if c.DynamicsSize == 0 {
		c.DynamicsSize = 60_000
	}
	if c.ServiceSize == 0 {
		c.ServiceSize = 8_000
	}
	if c.CorrelationScans == 0 {
		c.CorrelationScans = 40_000
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Runner executes experiments over one seeded pipeline. Construct
// with NewRunner; methods are safe to call in any order (shared
// corpora are built lazily and cached).
type Runner struct {
	cfg Config
	set *engine.Set

	mu sync.Mutex
	// dynSamples is dataset S: fresh, top-20-type, multi-report.
	dynSamples []*sampleset.Sample
	// rankCorpus caches the rank series of dynSamples.
	rankCorpus []SampleSeries
	// multiSamples is the §5.1/5.2 corpus: every multi-report sample
	// regardless of type or freshness.
	multiSamples []*sampleset.Sample
	// multiCorpus caches the rank series of multiSamples.
	multiCorpus []SampleSeries
	// population caches the Table 3 / Figure 1 population.
	population []*sampleset.Sample
	// flipsS caches the one flip pass over dataset S.
	flipsS *flipPass
	// collected maps each store directory this runner collected into
	// to the collector's stats.
	collected map[string]feed.Stats
}

// SampleSeries pairs a sample's identity with its AV-Rank series.
type SampleSeries struct {
	SHA256   string
	FileType string
	Fresh    bool
	Series   core.RankSeries
}

// NewRunner instantiates the engine roster for the collection window.
func NewRunner(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	set, err := engine.NewSet(engine.DefaultRoster(), cfg.Seed,
		simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, set: set, collected: map[string]feed.Stats{}}, nil
}

// Engines exposes the roster (used by correlation experiments and
// cmd/vtanalyze).
func (r *Runner) Engines() *engine.Set { return r.set }

// Population returns (cached) the full mixed population used by the
// landscape experiments.
func (r *Runner) Population() ([]*sampleset.Sample, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.population != nil {
		return r.population, nil
	}
	pop, err := sampleset.Generate(sampleset.Config{
		Seed:       r.cfg.Seed + 1,
		NumSamples: r.cfg.PopulationSize,
	})
	if err != nil {
		return nil, err
	}
	r.population = pop
	return pop, nil
}

// DatasetS returns (cached) the dynamics corpus — the analogue of
// the paper's dataset S: fresh samples of the top-20 file types with
// at least two in-window scans AND changing AV-Ranks (Δ > 0). The
// paper's S is effectively its dynamic-sample set (§5.3.1 "fresh
// dynamic samples"; its Δ analysis starts at 1 and its §6
// stabilization shares only make sense over dynamic samples).
//
// Filtering on Δ requires scanning, so this builds the rank corpus as
// a side effect; RankCorpus shares the cache.
func (r *Runner) DatasetS() ([]*sampleset.Sample, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.buildDatasetSLocked(); err != nil {
		return nil, err
	}
	return r.dynSamples, nil
}

func (r *Runner) buildDatasetSLocked() error {
	if r.dynSamples != nil {
		return nil
	}
	gen, err := sampleset.NewGenerator(sampleset.Config{
		Seed:         r.cfg.Seed + 2,
		NumSamples:   1, // generator is used as a stream; see Next loop
		MultiOnly:    true,
		TopTypesOnly: true,
	})
	if err != nil {
		return err
	}
	var samples []*sampleset.Sample
	var corpus []SampleSeries
	const maxBatches = 40
	for batch := 0; batch < maxBatches && len(samples) < r.cfg.DynamicsSize; batch++ {
		// Candidate batch: fresh, multi-scan samples.
		cand := make([]*sampleset.Sample, 0, r.cfg.DynamicsSize)
		for len(cand) < r.cfg.DynamicsSize {
			s := gen.Next()
			if !s.Fresh || len(s.ScanTimes) < 2 {
				continue
			}
			cand = append(cand, s)
		}
		scanned := r.scanToSeries(cand)
		for i, ss := range scanned {
			if ss.Series.Delta() == 0 {
				continue // stable: not in S
			}
			samples = append(samples, cand[i])
			corpus = append(corpus, ss)
			if len(samples) == r.cfg.DynamicsSize {
				break
			}
		}
	}
	r.dynSamples = samples
	r.rankCorpus = corpus
	return nil
}

// MultiReportSamples returns (cached) the §5.1/5.2 corpus: all
// multi-report samples, any file type, fresh or old.
func (r *Runner) MultiReportSamples() ([]*sampleset.Sample, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.multiSamples != nil {
		return r.multiSamples, nil
	}
	gen, err := sampleset.NewGenerator(sampleset.Config{
		Seed:       r.cfg.Seed + 3,
		NumSamples: r.cfg.DynamicsSize * 2,
		MultiOnly:  true,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*sampleset.Sample, 0, r.cfg.DynamicsSize)
	for len(out) < r.cfg.DynamicsSize {
		s := gen.Next()
		if len(s.ScanTimes) < 2 {
			continue // window truncation stranded a singleton
		}
		out = append(out, s)
	}
	r.multiSamples = out
	return out, nil
}

// MultiRankCorpus returns (cached) the rank series of the
// multi-report corpus.
func (r *Runner) MultiRankCorpus() ([]SampleSeries, error) {
	samples, err := r.MultiReportSamples()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.multiCorpus == nil {
		r.multiCorpus = r.scanToSeries(samples)
	}
	return r.multiCorpus, nil
}

// scanEach is the one scan pool: goroutine w of cfg.Workers scans
// samples w, w+Workers, … and passes each history to add with w and
// the sample index. Callers keep one accumulator per worker and merge
// them in worker order, so results never depend on scheduling.
func (r *Runner) scanEach(samples []*sampleset.Sample, add func(w, i int, h *report.History)) {
	workers := r.cfg.Workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				add(w, i, vtsim.ScanSample(r.set, samples[i]))
			}
		}(w)
	}
	wg.Wait()
}

// scanToSeries scans samples in parallel into rank series.
func (r *Runner) scanToSeries(samples []*sampleset.Sample) []SampleSeries {
	corpus := make([]SampleSeries, len(samples))
	r.scanEach(samples, func(_, i int, h *report.History) {
		s := samples[i]
		corpus[i] = SampleSeries{SHA256: s.SHA256, FileType: s.FileType, Fresh: s.Fresh, Series: core.FromHistory(h)}
	})
	return corpus
}

// ForEachHistory scans the given samples in parallel, invoking fn for
// each resulting history. fn must be safe for concurrent use (use
// per-worker accumulators and merge, or lock).
func (r *Runner) ForEachHistory(samples []*sampleset.Sample, fn func(*sampleset.Sample, *report.History)) {
	r.scanEach(samples, func(_, i int, h *report.History) { fn(samples[i], h) })
}

// RankCorpus returns (cached) the rank series for every dataset-S
// sample — the shared input of the rank-level experiments.
func (r *Runner) RankCorpus() ([]SampleSeries, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.buildDatasetSLocked(); err != nil {
		return nil, err
	}
	return r.rankCorpus, nil
}

// --- rendering helpers shared by the experiment results -------------

// table is a minimal fixed-width text table writer.
type table struct {
	w      io.Writer
	format string
}

func newTable(w io.Writer, widths ...int) *table {
	format := ""
	for _, wd := range widths {
		format += fmt.Sprintf("%%-%dv ", wd)
	}
	format += "\n"
	return &table{w: w, format: format}
}

func (t *table) row(cells ...any) {
	fmt.Fprintf(t.w, t.format, cells...)
}

func pct(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }
