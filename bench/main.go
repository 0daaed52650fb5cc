// Command bench is the repository's benchmark of record: five named
// workloads through the public functions of vtsim, vtapi, vtclient,
// feed, store, sync and core, every metric printed by name and unit,
// every output checked. See README.md for the tables.
//
//	go run -C bench . -workload query -seed 1 -seconds 12 -trace 0
//	go run -C bench .                  # all five, one child process each
//	go run -C bench . -trace           # the same, then a traced pass of each
//	go run -C bench . -repeat 5        # two sets of 5 passes; gaps against bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	lanes    int
	trace    bool
	out      string
	repeat   int
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func parseFlags(args []string, stderr io.Writer) (options, error) {
	// -trace takes 0 or 1 (the driver passes "--trace 0"); a bare
	// -trace means 1.
	fixed := make([]string, 0, len(args)+1)
	for i, a := range args {
		fixed = append(fixed, a)
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			fixed = append(fixed, "1")
		}
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 1, "derives every input")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "seconds one run measures")
	fs.IntVar(&o.lanes, "lanes", runtime.NumCPU(), "load-generating goroutines, connections and workers")
	fs.IntVar(&trace, "trace", 0, "1: traced pass, per-layer metrics; 0: untraced pass, end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "directory for machine-readable results and spans")
	fs.IntVar(&o.repeat, "repeat", 0, "run two sets of this many passes and compare their medians")
	if err := fs.Parse(fixed); err != nil {
		return o, err
	}
	o.trace = trace != 0
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds %v: want > 0", o.seconds)
	case o.lanes < 1:
		return o, fmt.Errorf("-lanes %d: want >= 1", o.lanes)
	case o.repeat < 0:
		return o, fmt.Errorf("-repeat %d: want >= 0", o.repeat)
	}
	if _, ok := workloadByName(o.workload); !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	switch {
	case o.repeat > 0:
		err = runRepeat(o, os.Stdout)
	case o.workload == "all":
		err = runAll(o, os.Stdout)
	default:
		var rep *runReport
		if rep, err = runWorkload(o, fullSizes); err == nil {
			err = rep.write(os.Stdout, o.out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// reported is one metric as printed.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runReport is everything one run of one workload found.
type runReport struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Lanes     int                  `json:"lanes"`
	Trace     bool                 `json:"trace"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]reported  `json:"metrics"`
	Samples   map[string][]float64 `json:"samples,omitempty"` // every slice's value, for -out
	Layers    map[string]layerTime `json:"layers,omitempty"`
	Problems  []string             `json:"problems,omitempty"`
	Suspect   []string             `json:"suspect,omitempty"`
	spans     []span
}

// errIncorrect ends a run whose outputs were wrong.
var errIncorrect = errors.New("output checks failed")

// write prints one line per metric, then the problems, then the
// result object the driver reads as the last line; with out set it
// also leaves the whole report and the spans there.
func (r *runReport) write(w io.Writer, out string) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", r.Workload, n, m.Value, m.Unit, m.N)
	}
	if r.Layers != nil {
		fmt.Fprintf(w, "%s self-time table (traced pass)\n", r.Workload)
		layers := make([]string, 0, len(r.Layers))
		for n := range r.Layers {
			layers = append(layers, n)
		}
		sort.Slice(layers, func(i, j int) bool { return r.Layers[layers[i]].Self > r.Layers[layers[j]].Self })
		for _, n := range layers {
			lt := r.Layers[n]
			fmt.Fprintf(w, "  %-24s calls %8d  total %9.4f s  self %9.4f s\n", n, lt.Calls, lt.Total, lt.Self)
		}
	}
	for _, s := range r.Suspect {
		fmt.Fprintf(w, "%s SUSPECT %s\n", r.Workload, s)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, p)
	}
	if out != "" {
		if err := r.save(out); err != nil {
			return err
		}
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted int64           `json:"attempted"`
		Failed    int64           `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]wire, len(r.Metrics))}
	for n, m := range r.Metrics {
		last.Metrics[n] = wire{m.Value, m.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", b)
	if !r.Correct {
		return errIncorrect
	}
	return nil
}

func (r *runReport) save(out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	name := r.Workload
	if r.Trace {
		name += ".trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, name+".json"), b, 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	b, err = json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, r.Workload+".spans.json"), b, 0o644)
}

// workRoot holds every run's scratch directory. It is inside the
// working directory because the benchmark may write nowhere else.
const workRoot = ".work"

// runWorkload runs one workload in this process and returns what it
// measured.
func runWorkload(o options, sz sizes) (*runReport, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer func() {
		os.RemoveAll(work)
		os.Remove(workRoot) // only succeeds once no other run is using it
	}()
	e := &env{sz: sz, seed: o.seed, lanes: o.lanes, work: work, res: newResults(), owned: make(map[string]bool)}
	for _, r := range w.native {
		for _, m := range r.measures {
			e.owned[m] = true
		}
	}
	rep := &runReport{Workload: w.Name, Seed: o.seed, Seconds: o.seconds, Lanes: o.lanes, Trace: o.trace}
	if o.trace {
		err = e.tracedRun(w, o.seconds, rep)
	} else {
		err = e.untracedRun(w, o.seconds)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rep.fill(e.res)
	return rep, nil
}

// untracedRun gives the end-to-end metrics. It goes round the regions
// sizes.Cycles times, so that a region's samples are spread over the
// whole run and not bunched in one stretch that a slow spell of the
// box could cover entirely. Each cycle spends half its seconds on the
// workload's own regions and the rest on every other region, because
// every run reports every end-to-end metric.
func (e *env) untracedRun(w workload, seconds float64) error {
	for i := 0; i < e.sz.Setups; i++ {
		e.teardown()
		t0 := time.Now()
		if err := e.setup(w); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		e.res.sample("setup_s", time.Since(t0).Seconds())
		// Set-up builds the base store by the uncheckpointed ingest,
		// which makes each build an ingest measurement, unless a
		// region of the workload measures ingest itself.
		e.probe = true
		e.sample("ingest_reports_per_s", e.base.rate())
		e.sample("store_bytes_per_report", e.base.bytesPerReport())
	}
	defer e.teardown()
	perCycle := seconds / 2 / float64(e.sz.Cycles)
	for c := 0; c < e.sz.Cycles; c++ {
		e.probe, e.check = false, c == e.sz.Cycles-1
		if err := e.runRegions(w.native, perCycle); err != nil {
			return err
		}
		e.probe = true
		if err := e.runRegions(w.others, perCycle); err != nil {
			return err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	e.res.sample("peak_rss_mb", rss)
	for _, m := range endToEnd {
		if v, _ := e.res.value(m.Name, m.Better); !(v > 0) || math.IsInf(v, 0) {
			e.res.problem("end-to-end metric %s was not measured", m.Name)
		}
	}
	return nil
}

// runRegions splits seconds evenly over regions and runs them.
func (e *env) runRegions(regions []region, seconds float64) error {
	for _, r := range regions {
		// Each region starts from a collected heap, so that one
		// region's garbage is not another's GC pause.
		runtime.GC()
		if err := r.run(e, seconds/float64(len(regions))); err != nil {
			return fmt.Errorf("region %s: %w", r.name, err)
		}
	}
	return nil
}

// Limits the traced pass is held to.
const (
	maxUnattributed = 0.10
	maxOverhead     = 0.05
)

// tracedRun gives the per-layer metrics: the workload's own regions,
// each cycle once untraced and once with spans around every call into
// a layer. The share of the timed regions no span accounts for, and
// what the spans cost, are checked against the limits above. The
// overhead is a difference of two timings that each move by 10 % or
// more on a shared box, so it fails the run only when it exceeds its
// limit by more than the untraced samples' own interquartile spread,
// on each of sizes.OverheadTries tries.
func (e *env) tracedRun(w workload, seconds float64, rep *runReport) error {
	if err := e.setup(w); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.teardown()
	var primary metric
	for _, m := range endToEnd {
		if m.Name == w.primary {
			primary = m
		}
	}
	for try := 1; ; try++ {
		plain, traced, tr := newResults(), newResults(), newTracer()
		mem := startMem()
		for c := 0; c < e.sz.Cycles; c++ {
			e.check = c == e.sz.Cycles-1
			e.res, e.tr = plain, nil
			if err := e.runRegions(w.native, seconds/2/float64(e.sz.Cycles)); err != nil {
				return err
			}
			e.res, e.tr = traced, tr
			if err := e.runRegions(w.native, seconds/2/float64(e.sz.Cycles)); err != nil {
				return err
			}
		}
		mem.report(traced, plain.attempted+traced.attempted)
		with, _ := traced.value(primary.Name, primary.Better)
		without, _ := plain.value(primary.Name, primary.Better)
		overhead := with/without - 1
		if primary.Better == "higher" {
			overhead = without/with - 1
		}
		noise := spread(plain.samples[primary.Name])
		if overhead <= maxOverhead+noise || try >= e.sz.OverheadTries {
			traced.sample("trace.overhead_frac", overhead)
			if overhead > maxOverhead+noise {
				traced.problem("tracing slowed %s by %.1f %% on each of %d tries, limit %.0f %% beyond the untraced samples' spread of %.1f %%",
					primary.Name, 100*overhead, try, 100*maxOverhead, 100*noise)
			}
			break
		}
	}
	if err := e.layerProbes(); err != nil {
		return err
	}
	rep.spans = e.tr.spans
	rep.Layers = selfTimes(rep.spans)
	e.putSpanMetrics(rep.Layers)
	if u := unattributed(rep.Layers); u > maxUnattributed {
		e.res.problem("%.1f %% of the timed regions is in no layer's span, limit %.0f %%", 100*u, 100*maxUnattributed)
	}
	return nil
}

// spanMetrics are the per-layer metrics that come from spans: the
// span name (with any .<op> suffix) and which of its sums to report.
var spanMetrics = []struct {
	metric, span string
	pick         func(layerTime) float64
}{
	{"store.sync_s", "store.sync", layerTime.total},
	{"store.sync_calls", "store.sync", layerTime.calls},
	{"feed.cursor_save_s", "feed.cursor_save", layerTime.total},
	{"store.put_batch_s", "store.put_batch", layerTime.total},
	{"store.put_batch_calls", "store.put_batch", layerTime.calls},
	{"store.close_s", "store.close", layerTime.total},
	{"vtsim.feed_between_s", "vtsim.feed_between", layerTime.total},
	{"vtclient.feed_call_s", "vtclient.call.feed", layerTime.total},
	{"http.roundtrip_s", "http.roundtrip", layerTime.total},
	{"vtapi.serve_s", "vtapi.serve", layerTime.total},
	{"feed.run_s", "feed.run", layerTime.total},
	{"feed.self_s", "feed.run", layerTime.self},
	{"sync.catchup_s", "sync.catchup", layerTime.total},
	{"sync.apply_self_s", "sync.catchup", layerTime.self},
	{"sync.leader_serve_s", "sync.leader_serve", layerTime.total},
	{"store.open_s", "store.open", layerTime.total},
	{"store.census_s", "store.census", layerTime.total},
	{"store.iter_all_s", "store.iter_all", layerTime.total},
	{"core.series_s", "core.series", layerTime.total},
	{"core.flip_matrix_s", "core.flip_matrix", layerTime.total},
	{"core.correlations_s", "core.correlations", layerTime.total},
}

// putSpanMetrics derives the per-layer metrics that come from spans.
func (e *env) putSpanMetrics(lt map[string]layerTime) {
	for _, sm := range spanMetrics {
		var sum layerTime
		for name, l := range lt {
			if name == sm.span || strings.HasPrefix(name, sm.span+".") {
				sum.Calls += l.Calls
				sum.Total += l.Total
				sum.Self += l.Self
			}
		}
		e.res.add(sm.metric, sm.pick(sum))
	}
	serveMS := make(map[string][]float64) // by span name
	for _, s := range e.tr.spans {
		if strings.HasPrefix(s.Name, "vtapi.serve.") {
			serveMS[s.Name] = append(serveMS[s.Name], float64(s.End-s.Start)/1e6)
		}
	}
	for name, ms := range serveMS {
		e.res.sample("vtapi.serve_ms_p50."+strings.TrimPrefix(name, "vtapi.serve."), percentile(ms, 0.50))
	}
	e.res.add("trace.unattributed_frac", unattributed(lt))
}

// fill copies results into the report: the end-to-end metrics on an
// untraced run, every per-layer metric on a traced one (0 where the
// workload never enters the layer).
func (r *runReport) fill(res *results) {
	r.Metrics = make(map[string]reported)
	put := func(name, unit, better string) {
		v, n := res.value(name, better)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.problem("metric %s is %v", name, v)
			v = 0
		}
		r.Metrics[name] = reported{v, unit, n}
	}
	if r.Trace {
		if res.attempted > 0 {
			res.add("op_fail_frac", float64(res.failed)/float64(res.attempted))
		}
		for _, m := range perLayer {
			put(m.Name, m.Unit, "")
		}
	} else {
		for _, m := range endToEnd {
			put(m.Name, m.Unit, m.Better)
		}
	}
	r.Attempted, r.Failed = res.attempted, res.failed
	if r.Attempted == 0 {
		res.problem("no operation was attempted")
		r.Attempted = 1
	}
	r.Samples = res.samples
	r.Problems, r.Suspect = res.problems, res.suspects()
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// child runs one workload in a child process of this binary, so that
// its peak RSS and its caches are its own, echoes what it prints, and
// returns its last line decoded.
func child(o options, w io.Writer) (*runReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-lanes", fmt.Sprint(o.lanes), "-trace", trace,
	}
	if o.out != "" {
		args = append(args, "-out", o.out)
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" && w != nil {
			fmt.Fprintln(w, last)
		}
		last = sc.Text()
	}
	rep := &runReport{Workload: o.workload}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, fmt.Errorf("%s: no result (%v)", o.workload, runErr)
	}
	return rep, nil
}

// runAll runs every workload once, each in its own child; with -trace
// each is followed by its traced pass.
func runAll(o options, w io.Writer) error {
	bad := 0
	for _, wl := range workloads {
		passes := []bool{false}
		if o.trace {
			passes = append(passes, true)
		}
		for _, traced := range passes {
			co := o
			co.workload, co.trace = wl.Name, traced
			rep, err := child(co, w)
			if err != nil {
				return err
			}
			if !rep.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their output checks", bad)
	}
	return nil
}

// runRepeat runs two sets of o.repeat passes of every workload and
// compares the sets' medians: the benchmark agreeing with itself is
// the precondition for comparing two commits with it.
func runRepeat(o options, w io.Writer) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	// vals[workload][metric][set] are the passes' values.
	vals := make(map[string]map[string][2][]float64)
	for set := 0; set < 2; set++ {
		for pass := 0; pass < o.repeat; pass++ {
			for _, name := range names {
				co := o
				co.workload, co.trace, co.seed, co.out = name, false, o.seed+int64(pass), ""
				rep, err := child(co, nil)
				if err != nil {
					return err
				}
				if !rep.Correct {
					return fmt.Errorf("%s seed %d: output checks failed", name, co.seed)
				}
				if vals[name] == nil {
					vals[name] = make(map[string][2][]float64)
				}
				for m, v := range rep.Metrics {
					s := vals[name][m]
					s[set] = append(s[set], v.Value)
					vals[name][m] = s
				}
				fmt.Fprintf(w, "set %d pass %d %s done\n", set+1, pass+1, name)
			}
		}
	}
	over := 0
	fmt.Fprintf(w, "%-14s %-24s %12s %8s %12s %8s %7s %6s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "gap", "bound")
	for _, name := range names {
		for _, m := range endToEnd {
			s := vals[name][m.Name]
			a, b := median(s[0]), median(s[1])
			gap := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if gap > m.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-14s %-24s %12.6g %7.1f%% %12.6g %7.1f%% %6.1f%% %5.0f%%%s\n",
				name, m.Name, a, 100*spread(s[0]), b, 100*spread(s[1]), 100*gap, 100*m.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics moved between two sets of runs of one commit by more than their bound", over)
	}
	return nil
}
