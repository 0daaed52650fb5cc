// Command vtbench runs the standardized end-to-end benchmark
// scenarios (internal/benchkit) and gates regressions between runs.
//
// Usage:
//
//	vtbench run [-scenario all] [-profile smoke] [-seed 1] [-out .]
//	            [-handicap name=factor,...] [-cpuprofile f] [-memprofile f]
//	vtbench soak [-arrivals 100000] [-rate 2000] [-clients 1000] [-storms] ...
//	vtbench compare OLD NEW [-threshold 10]
//	vtbench list
//
// `run` executes each scenario (warmup + repetitions), prints a
// summary line, and writes BENCH_<scenario>.json records into -out.
// -cpuprofile and -memprofile write pprof profiles covering the whole
// run (CPU for the duration, heap at exit) — the CI perf-smoke job
// attaches them as artifacts so a regression can be diagnosed from
// the run that caught it.
// `soak` drives the open-loop sustained-load harness
// (internal/loadgen) against a live loopback stack: arrivals are
// scheduled on a fixed timeline regardless of response latency, so
// the recorded p50/p90/p99/p99.9 include every queueing delay a
// stalled server causes (no coordinated omission). -storms overlays a
// rescan storm, an engine-outage wave, and a feed-lag spike; -handicap
// multiplies every latency the record states to prove the soak gate
// trips.
// `compare` diffs two records or two directories of records and exits
// 1 when any scenario's median slowed beyond threshold% plus the
// noisier run's CV — the CI perf gate; records carrying tail columns
// (soak) are gated on p99 too. -handicap artificially
// inflates named scenarios' measured times; it exists to prove the
// gate trips (`-handicap ingest=2` against a clean baseline must
// fail).
//
// Exit codes: 0 ok, 1 regression detected, 2 usage or runtime error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"vtdynamics/internal/benchkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage:
  vtbench run [-scenario all] [-profile smoke] [-seed 1] [-out .] [-handicap name=factor,...] [-cpuprofile f] [-memprofile f]
  vtbench soak [-arrivals 100000] [-rate 2000] [-clients 1000] [-samples 20000]
               [-submitters 5000] [-zipf 1.1] [-storms] [-feedwindow 2s]
               [-feedlimit 200] [-seed 1] [-out .] [-handicap 1] [-histout f]
  vtbench compare OLD NEW [-threshold 10]
  vtbench list
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "soak":
		return cmdSoak(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "list":
		return cmdList(stdout)
	case "help", "-h", "-help", "--help":
		fmt.Fprint(stdout, usageText)
		return 0
	default:
		fmt.Fprintf(stderr, "vtbench: unknown command %q\n%s", args[0], usageText)
		return 2
	}
}

// runOptions are the parsed `vtbench run` flags.
type runOptions struct {
	scenarios  []string
	profile    benchkit.Profile
	seed       int64
	out        string
	handicaps  map[string]float64
	cpuprofile string
	memprofile string
}

func parseRunFlags(args []string, stderr io.Writer) (*runOptions, error) {
	fs := flag.NewFlagSet("vtbench run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenario   = fs.String("scenario", "all", "scenario to run: all or a comma-separated subset of "+strings.Join(benchkit.ScenarioNames(), ","))
		profile    = fs.String("profile", "smoke", "workload size: "+strings.Join(benchkit.ProfileNames(), " or "))
		seed       = fs.Int64("seed", 1, "campaign seed (records with different seeds never compare)")
		out        = fs.String("out", ".", "directory receiving BENCH_<scenario>.json")
		handicap   = fs.String("handicap", "", "inflate named scenarios' measured times, e.g. ingest=2 (gate self-test)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU pprof profile covering the whole run to this file")
		memprofile = fs.String("memprofile", "", "write a heap pprof profile at run exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := &runOptions{seed: *seed, out: *out, handicaps: map[string]float64{},
		cpuprofile: *cpuprofile, memprofile: *memprofile}
	var err error
	if opts.profile, err = benchkit.ProfileByName(*profile); err != nil {
		return nil, err
	}
	if *scenario == "all" {
		opts.scenarios = benchkit.ScenarioNames()
	} else {
		for _, name := range strings.Split(*scenario, ",") {
			if _, err := benchkit.ScenarioByName(name); err != nil {
				return nil, err
			}
			opts.scenarios = append(opts.scenarios, name)
		}
	}
	for _, spec := range strings.Split(*handicap, ",") {
		if spec == "" {
			continue
		}
		name, factorStr, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad -handicap %q: want name=factor", spec)
		}
		if _, err := benchkit.ScenarioByName(name); err != nil {
			return nil, err
		}
		factor, err := strconv.ParseFloat(factorStr, 64)
		if err != nil || factor < 1 {
			return nil, fmt.Errorf("bad -handicap factor %q: want a number >= 1", factorStr)
		}
		opts.handicaps[name] = factor
	}
	return opts, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	opts, err := parseRunFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	if opts.cpuprofile != "" {
		f, err := os.Create(opts.cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if opts.memprofile != "" {
		defer func() {
			f, err := os.Create(opts.memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "vtbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "vtbench:", err)
			}
		}()
	}
	for _, name := range opts.scenarios {
		sc, err := benchkit.ScenarioByName(name)
		if err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		res, err := benchkit.Run(sc, benchkit.RunConfig{
			Profile:  opts.profile,
			Seed:     opts.seed,
			Handicap: opts.handicaps[name],
		})
		if err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		path, err := res.WriteFile(opts.out)
		if err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%-10s median %10.2fms  p90 %10.2fms  cv %5.1f%%  %12.0f ops/s  %8.0f allocs/op  %9.0f B/op  -> %s\n",
			res.Scenario, res.Stats.MedianNS/1e6, res.Stats.P90NS/1e6,
			res.Stats.CV*100, res.Stats.OpsPerSec,
			res.Stats.AllocsPerOp, res.Stats.BytesPerOp, path)
	}
	return 0
}

// compareOptions are the parsed `vtbench compare` flags.
type compareOptions struct {
	old, new  string
	threshold float64
}

func parseCompareFlags(args []string, stderr io.Writer) (*compareOptions, error) {
	fs := flag.NewFlagSet("vtbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "allowed median slowdown in percent (widened by the noisier run's CV)")
	// Flags may interleave with the two positional paths
	// (`compare old new -threshold 20` and `compare -threshold 20
	// old new` both work), so re-parse after each positional.
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
	if len(pos) != 2 {
		return nil, fmt.Errorf("compare wants exactly OLD and NEW, got %d arguments", len(pos))
	}
	if *threshold < 0 {
		return nil, fmt.Errorf("bad -threshold %v: want >= 0", *threshold)
	}
	return &compareOptions{old: pos[0], new: pos[1], threshold: *threshold}, nil
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	opts, err := parseCompareFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	comps, err := compare(opts)
	if err != nil {
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	regressed := false
	for _, c := range comps {
		fmt.Fprintln(stdout, c)
		regressed = regressed || c.Regressed || c.P99Regressed
	}
	if regressed {
		fmt.Fprintln(stderr, "vtbench: performance regression detected")
		return 1
	}
	return 0
}

// compare diffs two records or two directories of records.
func compare(opts *compareOptions) ([]benchkit.Comparison, error) {
	oldInfo, err := os.Stat(opts.old)
	if err != nil {
		return nil, err
	}
	if oldInfo.IsDir() {
		return benchkit.CompareDirs(opts.old, opts.new, opts.threshold)
	}
	oldRes, err := benchkit.ReadFile(opts.old)
	if err != nil {
		return nil, err
	}
	newRes, err := benchkit.ReadFile(opts.new)
	if err != nil {
		return nil, err
	}
	c, err := benchkit.Compare(oldRes, newRes, opts.threshold)
	if err != nil {
		return nil, err
	}
	return []benchkit.Comparison{c}, nil
}

func cmdList(stdout io.Writer) int {
	fmt.Fprintln(stdout, "scenarios:")
	for _, sc := range benchkit.Scenarios {
		fmt.Fprintf(stdout, "  %-10s %s\n", sc.Name, sc.Desc)
	}
	fmt.Fprintln(stdout, "profiles:")
	for _, name := range benchkit.ProfileNames() {
		p := benchkit.Profiles[name]
		fmt.Fprintf(stdout, "  %-10s samples %d, reps %d (+%d warmup), %d cold gets, %d hot gets, %d api requests\n",
			name, p.Samples, p.Reps, p.Warmup, p.Gets, p.HotGets, p.APIRequests)
	}
	return 0
}
