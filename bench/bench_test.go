package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smallSizes is fullSizes at 1/50.
var smallSizes = sizes{
	Samples:        120,
	CollectSamples: 36,
	CollectWindow:  240 * time.Hour, // 43 polls
	Population:     120,
	HotSet:         20,
	IngestWindow:   6 * time.Hour,
	APIRate:        300,
	LiveGetRate:    400,
	LivePace:       10 * time.Millisecond,
	Submitters:     30,
	Setups:         1,
	Cycles:         2,
	OverheadTries:  1,
}

// TestWorkloadsSmall runs every workload end to end at 1/50 size:
// every output check must hold and every end-to-end metric must come
// out, on every workload.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		rep, err := runWorkload(options{workload: w.Name, seed: 3, seconds: 0.3, lanes: 2}, smallSizes)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: failed %d of %d, problems %v", w.Name, rep.Failed, rep.Attempted, rep.Problems)
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
				t.Errorf("%s: metric %s = %+v", w.Name, m.Name, v)
			}
		}
		if err := rep.write(io.Discard, ""); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if _, err := os.Stat(workRoot); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind (%v)", workRoot, err)
	}
}

// TestTracedSmall runs the traced pass of the two workloads with the
// deepest call chains. Every per-layer metric is reported, the layers
// a workload bypasses read zero, and the spans account for the timed
// regions. The overhead limit is not asserted: at this size it
// compares two timings of a few milliseconds.
func TestTracedSmall(t *testing.T) {
	for _, name := range []string{"collect-http", "ingest-direct"} {
		rep, err := runWorkload(options{workload: name, seed: 3, seconds: 0.3, lanes: 2, trace: true}, smallSizes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range rep.Problems {
			if !strings.Contains(p, "tracing slowed") {
				t.Errorf("%s: %s", name, p)
			}
		}
		for _, m := range perLayer {
			if _, ok := rep.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
			}
		}
		syncs, polls := rep.Metrics["store.sync_calls"].Value, rep.Metrics["feed.polls"].Value
		if name == "collect-http" && (syncs != polls || polls < 43 || int(polls)%43 != 0) {
			t.Errorf("collect-http made %v store.Sync calls in %v polls, want one per poll and 43 polls per repetition", syncs, polls)
		}
		if name == "ingest-direct" && (syncs != 0 || rep.Metrics["vtapi.requests"].Value != 0) {
			t.Errorf("ingest-direct entered the checkpoint or HTTP layers: %v syncs, %v requests",
				syncs, rep.Metrics["vtapi.requests"].Value)
		}
		if u := rep.Metrics["trace.unattributed_frac"].Value; u > maxUnattributed {
			t.Errorf("%s: %.3f of the timed regions unattributed", name, u)
		}
		if rep.Layers["feed.run"].Calls == 0 || len(rep.spans) == 0 {
			t.Errorf("%s: no feed.run span among %d", name, len(rep.spans))
		}
	}
}

func TestPercentileExact(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0.10, 1}, {0.11, 2}, {0.001, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	// 1000 samples: p99 has exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v; Python gives 1, 3", q1, q3)
	}
}

// TestSelfTimeUnion: overlapping children are subtracted once.
func TestSelfTimeUnion(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100},                 // id 1
		{Name: "fetch", Start: 10, End: 50, Parent: 1},    // id 2
		{Name: "fetch", Start: 30, End: 70, Parent: 1},    // id 3, overlaps id 2
		{Name: "commit", Start: 60, End: 90, Parent: 1},   // id 4, overlaps id 3
		{Name: "gzip", Start: 65, End: 85, Parent: 4},     // id 5
		{Name: "late", Start: 95, End: 120, Parent: 1},    // id 6, runs past its parent
		{Name: "bench.x", Start: 0, End: 200},             // id 7
		{Name: "run", Start: 100, End: 150, Parent: 7},    // id 8
		{Name: "other", Start: 300, End: 310, Parent: 99}, // parent never recorded
	}
	lt := selfTimes(spans)
	// run #1: children cover [10,90] and [95,100] = 85 of 100; run #8 has none.
	if got := lt["run"]; got.Calls != 2 || !near(got.Total, 150e-9) || !near(got.Self, (15+50)*1e-9) {
		t.Errorf("run = %+v", got)
	}
	if got := lt["commit"]; !near(got.Self, 10e-9) {
		t.Errorf("commit = %+v", got)
	}
	if got := lt["fetch"]; !near(got.Total, 80e-9) || !near(got.Self, 80e-9) {
		t.Errorf("fetch = %+v", got)
	}
	// bench.x: 200 long, 50 covered.
	if got := unattributed(lt); !near(got, 0.75) {
		t.Errorf("unattributed = %v, want 0.75", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-15+1e-9*math.Abs(b) }

// TestTracerConcurrent: ids stay valid when lanes record at once.
func TestTracerConcurrent(t *testing.T) {
	tr := newTracer()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				id := tr.start("x", 0, i)
				tr.end(id)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if len(tr.spans) != 2000 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.End == 0 {
			t.Fatalf("span %+v not closed", s)
		}
	}
	var none *tracer
	none.end(none.start("x", 0, 0)) // a nil tracer records nothing and does not panic
}

// TestSeedDeterminism: a seed fixes the key and request sequences.
func TestSeedDeterminism(t *testing.T) {
	shas := make([]string, 200)
	for i := range shas {
		shas[i] = strings.Repeat("a", i%7) + string(rune('A'+i%26)) + strings.Repeat("b", i/26)
	}
	if !reflect.DeepEqual(coldKeys(shas, 1), coldKeys(shas, 1)) {
		t.Error("same seed, different cold key order")
	}
	if reflect.DeepEqual(coldKeys(shas, 1), coldKeys(shas, 2)) {
		t.Error("different seeds, same cold key order")
	}
	type req struct{ kind, sample int }
	seq := func(seed int64) []req {
		out := make([]req, 500)
		for i := range out {
			k, s := apiRequest(seed, i, 6000)
			out[i] = req{int(k), s}
		}
		return out
	}
	a := seq(1)
	if !reflect.DeepEqual(a, seq(1)) {
		t.Error("same seed, different request sequence")
	}
	if reflect.DeepEqual(a, seq(2)) {
		t.Error("different seeds, same request sequence")
	}
	// The mix is the default one: about half uploads, some of each kind.
	count := map[int]int{}
	for _, r := range a {
		count[r.kind]++
	}
	if count[0] < 200 || count[0] > 300 || len(count) != 4 {
		t.Errorf("request kinds %v, want the default mix", count)
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags(strings.Fields("--workload live --seed 7 --seconds 3 --trace 0"), io.Discard)
	if err != nil || o.workload != "live" || o.seed != 7 || o.seconds != 3 || o.trace {
		t.Errorf("driver form: %+v, %v", o, err)
	}
	o, err = parseFlags(strings.Fields("--workload live --trace 1 --seed 2"), io.Discard)
	if err != nil || !o.trace || o.seed != 2 {
		t.Errorf("--trace 1: %+v, %v", o, err)
	}
	o, err = parseFlags(strings.Fields("-trace -seed 2"), io.Discard)
	if err != nil || !o.trace || o.seed != 2 || o.workload != "all" {
		t.Errorf("bare -trace: %+v, %v", o, err)
	}
	if o, err = parseFlags([]string{"-trace"}, io.Discard); err != nil || !o.trace {
		t.Errorf("trailing -trace: %+v, %v", o, err)
	}
	for _, bad := range []string{"-workload nope", "-seconds 0", "-lanes 0", "-repeat -1", "extra"} {
		if _, err := parseFlags(strings.Fields(bad), io.Discard); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to its schema and to the
// tables in spec.go.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
	if len(top) != len(wantKeys) {
		t.Errorf("top-level keys %d, want exactly %v", len(top), wantKeys)
	}
	for _, k := range wantKeys {
		if _, ok := top[k]; !ok {
			t.Errorf("key %q missing", k)
		}
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "-C", "bench", "."}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", doc.RunSeconds, defaultSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go, want 2 to 8", n, len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d is %q, spec.go has %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if n := len(doc.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go, want 1 to 16", n, len(endToEnd))
	}
	e2e := map[string]bool{}
	setup := false
	for i, m := range doc.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		want := endToEnd[i]
		if m.Bound == nil || m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || *m.Bound != want.Bound {
			t.Errorf("end-to-end metric %d is %+v, spec.go has %+v", i, m, want)
			continue
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range doc.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if n := len(doc.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go, want 1 to 128", n, len(perLayer))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per-layer metric %d is %+v, spec.go has %+v", i, m, want)
		}
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		// The prediction: a layer metric names an end-to-end metric
		// and a workload that exist.
		if !e2e[want.Moves] {
			t.Errorf("%s should move %q, which is not an end-to-end metric", m.Name, want.Moves)
		}
		if _, ok := workloadByName(want.On); !ok {
			t.Errorf("%s should move it on %q, which is not a workload", m.Name, want.On)
		}
	}
	for _, w := range workloads {
		if !e2e[w.primary] {
			t.Errorf("workload %s: primary metric %q is not end-to-end", w.Name, w.primary)
		}
	}
}
