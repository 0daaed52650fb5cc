// Package benchkit is the end-to-end benchmark harness behind
// cmd/vtbench: standardized campaign scenarios over the real pipeline
// (vtsim service → feed collector → compressed store → HTTP API),
// each run R times with warmup and reported as machine-readable
// BENCH_<scenario>.json plus a regression comparer.
//
// Earlier PRs measured their speedups by hand and recorded them as
// prose tables in EXPERIMENTS.md; nothing stopped a later change from
// silently regressing them. benchkit turns those measurements into a
// standing record: `vtbench run` reproduces every perf table from one
// fixed seed, and `vtbench compare` (the CI perf-smoke job) fails a
// PR whose medians fall outside the baseline's tolerance.
//
// Design constraints:
//
//   - Scenarios are end to end, not micro: each one exercises a whole
//     user-visible path (ingest a campaign, read a collected store
//     cold and hot, scan it, drive the HTTP API through the retrying
//     client with faults on and off).
//   - Fixed seed, checked work: every scenario derives its workload
//     deterministically from the seed and fails loudly if the work it
//     timed was not the work it expected (collected-envelope counts,
//     cache-hit identities, row totals) — a perf number over wrong
//     work is worse than no number.
//   - Medians gate, CV widens: the comparer tolerates threshold% plus
//     the noisier run's coefficient of variation, so one descheduled
//     rep cannot fail a PR while a real slowdown still does.
package benchkit

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// Rep is one measured repetition of a scenario.
type Rep struct {
	// NS is the wall-clock of the scenario's timed region.
	NS int64
	// Ops counts the work units (envelopes, lookups, rows, round
	// trips) the timed region processed.
	Ops int64
	// Obs is the scenario registry's counter/gauge snapshot.
	Obs map[string]int64
}

// RepFunc runs one repetition. Scenarios time their own hot region so
// per-rep setup (opening a store, binding a listener) stays out of
// the measurement.
type RepFunc func() (Rep, error)

// Scenario is one standardized campaign benchmark.
type Scenario struct {
	Name string
	Desc string
	// Params reports the knobs that define the workload, recorded in
	// the result for the comparability check.
	Params func(p Profile, seed int64) map[string]any
	// Prepare builds shared fixtures under workDir and returns the
	// per-rep run function.
	Prepare func(p Profile, seed int64, workDir string) (RepFunc, error)
}

// RunConfig parameterizes one scenario execution.
type RunConfig struct {
	Profile Profile
	Seed    int64
	// Handicap artificially inflates every measured repetition by the
	// given factor (0 or 1 disables; Result.Handicapped). It exists to
	// validate the regression gate end to end: a handicapped record
	// against a clean one must fail `vtbench compare`.
	Handicap float64
	// WorkDir is the scratch directory for fixtures; the caller owns
	// its lifetime. Empty uses a fresh temp directory removed on exit.
	WorkDir string
}

// Run executes the scenario: prepare once, warm up, then measure
// Profile.Reps repetitions.
func Run(sc Scenario, cfg RunConfig) (*Result, error) {
	p := cfg.Profile
	if p.Reps < 1 {
		return nil, fmt.Errorf("benchkit: profile %q has %d reps", p.Name, p.Reps)
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "vtbench-"+sc.Name+"-*")
		if err != nil {
			return nil, fmt.Errorf("benchkit: %w", err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	rep, err := sc.Prepare(p, cfg.Seed, workDir)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %s: prepare: %w", sc.Name, err)
	}
	for i := 0; i < p.Warmup; i++ {
		if _, err := rep(); err != nil {
			return nil, fmt.Errorf("benchkit: %s: warmup rep %d: %w", sc.Name, i, err)
		}
	}
	res := &Result{
		Schema:     SchemaVersion,
		Scenario:   sc.Name,
		Profile:    p.Name,
		Seed:       cfg.Seed,
		Params:     sc.Params(p, cfg.Seed),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		UnixTime:   time.Now().Unix(),
		Warmup:     p.Warmup,
	}
	var before, after runtime.MemStats
	for i := 0; i < p.Reps; i++ {
		// Mallocs and TotalAlloc are monotonic, so the delta needs no
		// GC fence. The process runs one scenario at a time, so the
		// process-wide delta is the scenario's allocation (per-rep
		// setup outside the timed region is included — the record is
		// honest about what a whole rep costs).
		runtime.ReadMemStats(&before)
		r, err := rep()
		if err != nil {
			return nil, fmt.Errorf("benchkit: %s: rep %d: %w", sc.Name, i, err)
		}
		runtime.ReadMemStats(&after)
		res.RepNS = append(res.RepNS, r.NS)
		res.RepOps = append(res.RepOps, r.Ops)
		res.RepAllocs = append(res.RepAllocs, int64(after.Mallocs-before.Mallocs))
		res.RepBytes = append(res.RepBytes, int64(after.TotalAlloc-before.TotalAlloc))
		res.Obs = r.Obs
	}
	res.Stats = computeStats(res.RepNS, res.RepOps)
	res.Stats.AllocsPerOp = perOp(res.RepAllocs, res.RepOps)
	res.Stats.BytesPerOp = perOp(res.RepBytes, res.RepOps)
	if cfg.Handicap > 1 {
		res = res.Handicapped(cfg.Handicap)
	}
	return res, nil
}
