package benchkit

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SchemaVersion identifies the BENCH_*.json layout. vtbench/2 added
// the per-rep allocation record (rep_allocs, rep_bytes and the
// allocs_per_op/bytes_per_op stats); vtbench/3 added the tail-latency
// columns (p99_ns, p999_ns) for open-loop soak records and num_cpu so
// the comparer can flag machine drift. Old records remain readable
// and comparable — the median gate never needed the new columns — so
// existing baselines keep gating until they are refreshed.
const (
	SchemaVersion = "vtbench/3"
	schemaV2      = "vtbench/2"
	schemaV1      = "vtbench/1"
)

// Result is one scenario's measured record — the unit written as
// BENCH_<scenario>.json. Everything needed to judge whether two runs
// are comparable (params, seed, schema) and whether one regressed
// (per-rep times, derived stats) is in the file; the obs snapshot
// carries the counters that explain the numbers (rows put, blocks
// decoded, faults injected, retries).
type Result struct {
	Schema     string         `json:"schema"`
	Scenario   string         `json:"scenario"`
	Profile    string         `json:"profile"`
	Seed       int64          `json:"seed"`
	Params     map[string]any `json:"params"`
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	// NumCPU is the machine's logical CPU count at measurement time.
	// GOMAXPROCS alone can hide drift (two machines may both run with
	// GOMAXPROCS=4 on very different hardware budgets). vtbench/3;
	// zero on older records.
	NumCPU   int     `json:"num_cpu,omitempty"`
	UnixTime int64   `json:"unix_time"`
	Warmup   int     `json:"warmup"`
	RepNS    []int64 `json:"rep_ns"`
	RepOps   []int64 `json:"rep_ops"`
	// RepAllocs and RepBytes are the per-rep heap allocation deltas
	// (mallocs and bytes) over the whole process, from
	// runtime.ReadMemStats around the measured region. vtbench/2;
	// absent from vtbench/1 records.
	RepAllocs []int64          `json:"rep_allocs,omitempty"`
	RepBytes  []int64          `json:"rep_bytes,omitempty"`
	Stats     Stats            `json:"stats"`
	Obs       map[string]int64 `json:"obs"`
}

// FileName returns the canonical file name for a scenario's record.
func FileName(scenario string) string { return "BENCH_" + scenario + ".json" }

// ScenarioOf inverts FileName; ok is false for non-BENCH files.
func ScenarioOf(name string) (string, bool) {
	base := filepath.Base(name)
	if !strings.HasPrefix(base, "BENCH_") || !strings.HasSuffix(base, ".json") {
		return "", false
	}
	return strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json"), true
}

// WriteFile writes the result into dir as BENCH_<scenario>.json.
func (r *Result) WriteFile(dir string) (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("benchkit: %w", err)
	}
	path := filepath.Join(dir, FileName(r.Scenario))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("benchkit: %w", err)
	}
	return path, nil
}

// ReadFile loads and validates one BENCH_*.json record.
func ReadFile(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("benchkit: %s: %w", path, err)
	}
	return &r, nil
}

// Handicapped returns a copy of r as if every time it measured had
// taken f times longer. It is the regression gate's self-test: Run and
// RunSoak apply it to their own measurement under a Handicap, and a
// record compared against its own handicapped copy sees a ratio of
// exactly f, whatever load the machine was under.
func (r *Result) Handicapped(f float64) *Result {
	h := *r
	h.RepNS = make([]int64, len(r.RepNS))
	for i, ns := range r.RepNS {
		h.RepNS[i] = int64(float64(ns) * f)
	}
	st := &h.Stats
	for _, v := range []*float64{&st.MedianNS, &st.P90NS, &st.P99NS, &st.P999NS, &st.MeanNS, &st.StddevNS} {
		*v *= f
	}
	st.MinNS = int64(float64(st.MinNS) * f)
	st.MaxNS = int64(float64(st.MaxNS) * f)
	st.OpsPerSec /= f
	return &h
}

// Validate checks the structural invariants a record must satisfy
// before it can gate anything.
func (r *Result) Validate() error {
	switch {
	case r.Schema != SchemaVersion && r.Schema != schemaV2 && r.Schema != schemaV1:
		return fmt.Errorf("schema %q, want %q, %q, or %q", r.Schema, SchemaVersion, schemaV2, schemaV1)
	case r.Scenario == "":
		return fmt.Errorf("missing scenario name")
	case len(r.RepNS) == 0:
		return fmt.Errorf("no repetitions recorded")
	case len(r.RepNS) != len(r.RepOps):
		return fmt.Errorf("%d rep_ns vs %d rep_ops", len(r.RepNS), len(r.RepOps))
	case r.Stats.MedianNS <= 0:
		return fmt.Errorf("non-positive median")
	}
	// Alloc columns are optional (vtbench/1 has none), but when
	// present they must be per-rep like the time columns.
	if n := len(r.RepAllocs); n != 0 && n != len(r.RepNS) {
		return fmt.Errorf("%d rep_allocs vs %d rep_ns", n, len(r.RepNS))
	}
	if n := len(r.RepBytes); n != 0 && n != len(r.RepNS) {
		return fmt.Errorf("%d rep_bytes vs %d rep_ns", n, len(r.RepNS))
	}
	for i, ns := range r.RepNS {
		if ns <= 0 {
			return fmt.Errorf("rep %d has non-positive duration %d", i, ns)
		}
	}
	return nil
}

// paramsKey renders Params deterministically (encoding/json sorts map
// keys) so two records can be checked for like-for-like comparability
// without caring about number types after a JSON round trip.
func (r *Result) paramsKey() string {
	b, err := json.Marshal(r.Params)
	if err != nil {
		return fmt.Sprintf("unmarshalable:%v", err)
	}
	return string(b)
}

// Comparison is the verdict on one scenario between two runs.
type Comparison struct {
	Scenario  string
	OldMedian float64
	NewMedian float64
	// Delta is the fractional slowdown: (new-old)/old. Negative means
	// the new run is faster.
	Delta float64
	// Allowed is the tolerated fractional slowdown: threshold plus the
	// noisier run's CV.
	Allowed   float64
	Regressed bool
	Improved  bool
	// OldP99/NewP99 carry the tail gate when both records have a p99
	// column (vtbench/3 soak records); P99Delta is its fractional
	// slowdown. Zero-valued when either side predates the column —
	// the tail gate only ever tightens, never blocks old baselines.
	OldP99   float64
	NewP99   float64
	P99Delta float64
	// P99Regressed is the tail verdict, judged against the same
	// Allowed band as the median. Either gate failing fails the
	// comparison: a server can hold its median while its p99
	// collapses, and that is exactly the regression an open-loop soak
	// exists to catch.
	P99Regressed bool
	// OldProcs/NewProcs record the GOMAXPROCS each run measured under.
	// A mismatch makes the comparison apples-to-oranges for the
	// parallel paths, but it is a property of the measuring machine,
	// not the code under test, so it warns instead of failing the gate.
	OldProcs int
	NewProcs int
	// OldCPUs/NewCPUs record runtime.NumCPU — same drift-warning role
	// as the procs pair (GOMAXPROCS can match while the underlying
	// machine shrank). Zero on pre-vtbench/3 records.
	OldCPUs int
	NewCPUs int
}

// ProcsMismatch reports whether the two runs used different
// GOMAXPROCS values.
func (c Comparison) ProcsMismatch() bool { return c.OldProcs != c.NewProcs }

// CPUsMismatch reports whether the two runs measured on machines with
// different logical CPU counts; records without the column (num_cpu
// is vtbench/3) never mismatch.
func (c Comparison) CPUsMismatch() bool {
	return c.OldCPUs != 0 && c.NewCPUs != 0 && c.OldCPUs != c.NewCPUs
}

func (c Comparison) String() string {
	verdict := "ok"
	if c.Regressed || c.P99Regressed {
		verdict = "REGRESSED"
	} else if c.Improved {
		verdict = "improved"
	}
	s := fmt.Sprintf("%-10s %12.2fms -> %12.2fms  %+7.1f%% (allowed ±%.1f%%)  %s",
		c.Scenario, c.OldMedian/1e6, c.NewMedian/1e6, c.Delta*100, c.Allowed*100, verdict)
	if c.OldP99 > 0 && c.NewP99 > 0 {
		tail := "ok"
		if c.P99Regressed {
			tail = "REGRESSED"
		}
		s += fmt.Sprintf("\n%-10s %12.2fms -> %12.2fms  %+7.1f%% (allowed ±%.1f%%)  %s",
			"  └ p99", c.OldP99/1e6, c.NewP99/1e6, c.P99Delta*100, c.Allowed*100, tail)
	}
	if c.ProcsMismatch() {
		s += fmt.Sprintf("  [warning: GOMAXPROCS %d vs %d]", c.OldProcs, c.NewProcs)
	}
	if c.CPUsMismatch() {
		s += fmt.Sprintf("  [warning: num_cpu %d vs %d]", c.OldCPUs, c.NewCPUs)
	}
	return s
}

// Compare judges new against old at a threshold given in percent. The
// tolerance is threshold/100 plus the larger of the two runs' CVs, so
// a noisy scenario must move by more than its own observed noise band
// before it fails the gate. An error means the records are not
// comparable (different schema, scenario, seed, or params) — the gate
// should treat that as a failure to configure, not a perf verdict.
func Compare(old, new *Result, thresholdPct float64) (Comparison, error) {
	var c Comparison
	if err := old.Validate(); err != nil {
		return c, fmt.Errorf("old record: %w", err)
	}
	if err := new.Validate(); err != nil {
		return c, fmt.Errorf("new record: %w", err)
	}
	if old.Scenario != new.Scenario {
		return c, fmt.Errorf("scenario mismatch: %q vs %q", old.Scenario, new.Scenario)
	}
	if old.Seed != new.Seed {
		return c, fmt.Errorf("%s: seed mismatch: %d vs %d", old.Scenario, old.Seed, new.Seed)
	}
	if old.paramsKey() != new.paramsKey() {
		return c, fmt.Errorf("%s: params mismatch:\n  old %s\n  new %s",
			old.Scenario, old.paramsKey(), new.paramsKey())
	}
	c.Scenario = old.Scenario
	c.OldProcs = old.GOMAXPROCS
	c.NewProcs = new.GOMAXPROCS
	c.OldCPUs = old.NumCPU
	c.NewCPUs = new.NumCPU
	c.OldMedian = old.Stats.MedianNS
	c.NewMedian = new.Stats.MedianNS
	c.Delta = (c.NewMedian - c.OldMedian) / c.OldMedian
	c.Allowed = thresholdPct/100 + max(old.Stats.CV, new.Stats.CV)
	c.Regressed = c.Delta > c.Allowed
	c.Improved = c.Delta < -c.Allowed
	if old.Stats.P99NS > 0 && new.Stats.P99NS > 0 {
		c.OldP99 = old.Stats.P99NS
		c.NewP99 = new.Stats.P99NS
		c.P99Delta = (c.NewP99 - c.OldP99) / c.OldP99
		c.P99Regressed = c.P99Delta > c.Allowed
	}
	return c, nil
}

// CompareDirs compares every BENCH_*.json present in oldDir against
// its counterpart in newDir. A scenario recorded in the baseline but
// missing from the new run is an error: a gate that silently skips
// scenarios stops gating. Extra scenarios in newDir are ignored (a PR
// may add scenarios before its baseline lands).
func CompareDirs(oldDir, newDir string, thresholdPct float64) ([]Comparison, error) {
	entries, err := os.ReadDir(oldDir)
	if err != nil {
		return nil, fmt.Errorf("benchkit: %w", err)
	}
	var names []string
	for _, e := range entries {
		if _, ok := ScenarioOf(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("benchkit: no BENCH_*.json records in %s", oldDir)
	}
	sort.Strings(names)
	var out []Comparison
	for _, name := range names {
		oldRes, err := ReadFile(filepath.Join(oldDir, name))
		if err != nil {
			return nil, err
		}
		newPath := filepath.Join(newDir, name)
		newRes, err := ReadFile(newPath)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("benchkit: baseline has %s but the new run is missing %s", name, newPath)
			}
			return nil, err
		}
		c, err := Compare(oldRes, newRes, thresholdPct)
		if err != nil {
			return nil, fmt.Errorf("benchkit: %w", err)
		}
		out = append(out, c)
	}
	return out, nil
}
