package benchkit

import (
	"context"
	"math"
	"testing"
	"time"
)

// soakTestOptions is a seconds-scale soak: enough arrivals to cross
// every storm phase, small enough for the race detector.
func soakTestOptions() SoakOptions {
	return SoakOptions{
		Samples:    300,
		Arrivals:   600,
		Clients:    64,
		Submitters: 200,
		Rate:       1200,
		Zipf:       1.1,
		Seed:       42,
		Storms:     true,
		FeedWindow: 500 * time.Millisecond,
	}
}

// TestRunSoakProducesValidRecord drives the whole stack — open-loop
// generator, loopback HTTP, vtsim with storm phases — and checks the
// record is gate-ready: valid, tail columns populated, counts
// consistent with the loadgen report.
func TestRunSoakProducesValidRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-scale end-to-end soak")
	}
	res, rep, err := RunSoak(context.Background(), soakTestOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("soak record invalid: %v", err)
	}
	if res.Scenario != "soak" || res.Schema != SchemaVersion {
		t.Fatalf("record mislabeled: %s %s", res.Scenario, res.Schema)
	}
	if res.Stats.P99NS <= 0 || res.Stats.P999NS < res.Stats.P99NS {
		t.Fatalf("tail columns not populated sanely: p99=%v p999=%v", res.Stats.P99NS, res.Stats.P999NS)
	}
	if res.Stats.MedianNS > res.Stats.P99NS {
		t.Fatalf("median %v above p99 %v", res.Stats.MedianNS, res.Stats.P99NS)
	}
	if res.NumCPU <= 0 {
		t.Fatal("num_cpu not recorded")
	}
	if rep.Completed != int64(rep.Arrivals) {
		t.Fatalf("completed %d of %d", rep.Completed, rep.Arrivals)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d hard errors", rep.Errors)
	}
	// The storm phases must have actually run: the outage wave drops
	// engine results, which is visible in the shared registry.
	if res.Obs["sim_outage_dropped_results_total"] == 0 {
		t.Error("outage wave left no trace; Enter/Exit hooks did not reach the service")
	}
	// Feed and scan traffic must both have happened.
	if res.Obs["sim_scans_total"] == 0 {
		t.Error("no scans recorded")
	}
	if rep.PerOp["feed"].Count == 0 {
		t.Error("no feed requests in the mix")
	}
}

// TestSoakHandicapTripsP99Gate is the CI gate's self-test at package
// level: a handicapped soak states its own measured latencies times
// the handicap, and a record compared against its handicapped copy
// fails the comparison on its median and its tail.
func TestSoakHandicapTripsP99Gate(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-scale end-to-end soak")
	}
	opts := soakTestOptions()
	opts.Storms = false // minimal run: the gate, not the scenarios
	opts.Arrivals = 400
	opts.Samples = 200
	baseline, _, err := RunSoak(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Handicap = 25
	slow, rep, err := RunSoak(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		name          string
		got, measured float64
	}{{"p50", slow.Stats.MedianNS, rep.Overall.P50}, {"p99", slow.Stats.P99NS, rep.Overall.P99}} {
		if want := 25 * q.measured * 1e9; math.Abs(q.got-want) > 1e-9*want {
			t.Fatalf("handicapped %s = %v ns, want 25x the measured %v s", q.name, q.got, q.measured)
		}
	}
	// 400% threshold: generous enough for run-to-run noise on a busy
	// machine, hopeless against a 25x handicap.
	c, err := Compare(baseline, baseline.Handicapped(25), 400)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Regressed || !c.P99Regressed {
		t.Fatalf("25x latency handicap slipped through the gate: %+v", c)
	}
	if c.OldP99 <= 0 || c.NewP99 <= 0 {
		t.Fatalf("tail gate not engaged: %+v", c)
	}
	// And the unhandicapped run compares clean against itself.
	c, err = Compare(baseline, baseline, 400)
	if err != nil {
		t.Fatal(err)
	}
	if c.Regressed || c.P99Regressed {
		t.Fatalf("baseline regressed against itself: %+v", c)
	}
}
