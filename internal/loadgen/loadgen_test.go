package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{
		Rate:         100,
		Clients:      4,
		Arrivals:     1000,
		Seed:         42,
		Submitters:   500,
		ZipfExponent: 1.1,
		Samples:      200,
		FeedWindow:   2 * time.Second,
	}
}

// TestPlanOffsets pins the piecewise-constant timeline arithmetic: a
// storm phase compresses exactly its own index range and shifts
// everything after it.
func TestPlanOffsets(t *testing.T) {
	cfg := testConfig()
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.offsetOf(0); got != 0 {
		t.Errorf("offsetOf(0) = %v, want 0", got)
	}
	if got := p.offsetOf(100); got != time.Second {
		t.Errorf("offsetOf(100) = %v, want 1s", got)
	}
	if p.end != 10*time.Second {
		t.Errorf("end = %v, want 10s", p.end)
	}

	// A 4x storm over [0.4, 0.55): arrivals 400-549 come at 400/s.
	cfg.Phases = []Phase{{Name: "storm", FromFrac: 0.4, ToFrac: 0.55, RateMul: 4}}
	p, err = newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.offsetOf(400); got != 4*time.Second {
		t.Errorf("storm start offsetOf(400) = %v, want 4s", got)
	}
	wantMid := 4*time.Second + 375*time.Millisecond // 150 arrivals at 400/s
	if got := p.offsetOf(550); got != wantMid {
		t.Errorf("post-storm offsetOf(550) = %v, want %v", got, wantMid)
	}
	wantEnd := wantMid + 4500*time.Millisecond // remaining 450 at 100/s
	if p.end != wantEnd {
		t.Errorf("end with storm = %v, want %v", p.end, wantEnd)
	}
	if d, err := Duration(cfg); err != nil || d != wantEnd {
		t.Errorf("Duration = %v, %v; want %v, nil", d, err, wantEnd)
	}
}

// TestWorkloadDeterminism checks that request attributes are a pure
// function of (seed, seq): same seed, same workload; different seed,
// different workload.
func TestWorkloadDeterminism(t *testing.T) {
	cfg := testConfig()
	a, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newPlan(cfg)
	for seq := 0; seq < cfg.Arrivals; seq++ {
		ra, rb := a.request(seq), b.request(seq)
		if ra.Kind != rb.Kind || ra.Submitter != rb.Submitter || ra.Sample != rb.Sample {
			t.Fatalf("seq %d differs across identical plans: %+v vs %+v", seq, ra, rb)
		}
		if ra.Sample < 0 || ra.Sample >= cfg.Samples {
			t.Fatalf("seq %d sample %d out of [0, %d)", seq, ra.Sample, cfg.Samples)
		}
		if ra.Submitter < 0 || ra.Submitter >= cfg.Submitters {
			t.Fatalf("seq %d submitter %d out of [0, %d)", seq, ra.Submitter, cfg.Submitters)
		}
	}
	cfg.Seed = 43
	c, _ := newPlan(cfg)
	diff := 0
	for seq := 0; seq < cfg.Arrivals; seq++ {
		if a.request(seq) != c.request(seq) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("changing the seed changed nothing about the workload")
	}
}

// TestZipfSkew checks the heavy-tailed submitter mix: the hottest key
// takes far more than a uniform share, and the tail is still reached.
func TestZipfSkew(t *testing.T) {
	cfg := testConfig()
	cfg.Arrivals = 20000
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Submitters)
	for seq := 0; seq < cfg.Arrivals; seq++ {
		counts[p.request(seq).Submitter]++
	}
	uniform := float64(cfg.Arrivals) / float64(cfg.Submitters) // 40
	if got := float64(counts[0]); got < 20*uniform {
		t.Errorf("hottest submitter got %v arrivals, want >= 20x the uniform share (%v)", got, 20*uniform)
	}
	tailHits := 0
	for _, c := range counts[cfg.Submitters/2:] {
		tailHits += c
	}
	if tailHits == 0 {
		t.Error("no arrivals reached the cold half of the submitter space")
	}
}

// TestMixShares checks the steady-state kind mix and a phase override:
// inside a rescan storm the rescan share dominates.
func TestMixShares(t *testing.T) {
	cfg := testConfig()
	cfg.Arrivals = 10000
	cfg.Phases = []Phase{{
		Name: "rescan-storm", FromFrac: 0.4, ToFrac: 0.6,
		Mix: &Mix{Upload: 0.05, Report: 0.05, Rescan: 0.88, Feed: 0.02},
	}}
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steady, storm [numKinds]int
	for seq := 0; seq < cfg.Arrivals; seq++ {
		r := p.request(seq)
		if seq >= 4000 && seq < 6000 {
			storm[r.Kind]++
		} else {
			steady[r.Kind]++
		}
	}
	steadyTotal := float64(cfg.Arrivals - 2000)
	if share := float64(steady[KindUpload]) / steadyTotal; math.Abs(share-DefaultMix.Upload) > 0.05 {
		t.Errorf("steady upload share %v, want ~%v", share, DefaultMix.Upload)
	}
	if share := float64(storm[KindRescan]) / 2000; share < 0.8 {
		t.Errorf("storm rescan share %v, want >= 0.8", share)
	}
	if share := float64(steady[KindRescan]) / steadyTotal; share > 0.25 {
		t.Errorf("steady rescan share %v leaked the storm mix", share)
	}
}

// TestFeedWindowMul checks the feed-lag overlay: feed requests inside
// the phase span the amplified window.
func TestFeedWindowMul(t *testing.T) {
	cfg := testConfig()
	cfg.Mix = Mix{Feed: 1} // all feed, so every seq is observable
	cfg.Phases = []Phase{{Name: "feed-lag", FromFrac: 0.5, ToFrac: 0.8, FeedWindowMul: 40}}
	p, err := newPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.request(100).FeedWindow; got != cfg.FeedWindow {
		t.Errorf("steady feed window = %v, want %v", got, cfg.FeedWindow)
	}
	if got := p.request(600).FeedWindow; got != 40*cfg.FeedWindow {
		t.Errorf("feed-lag window = %v, want %v", got, 40*cfg.FeedWindow)
	}
}

// TestRunCountsOutcomes drives a fast run where reports are rejected
// as not-found and everything else succeeds; the partition must be
// exact and no outcome may count as a hard error.
func TestRunCountsOutcomes(t *testing.T) {
	cfg := testConfig()
	cfg.Rate = 50000
	cfg.Arrivals = 2000
	cfg.Clients = 64
	var reports atomic.Int64
	rep, err := Run(context.Background(), cfg, TargetFunc(func(_ context.Context, req *Request) error {
		if req.Kind == KindReport {
			reports.Add(1)
			return fmt.Errorf("%w: no such sample", ErrNotFound)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != int64(cfg.Arrivals) {
		t.Fatalf("Completed = %d, want %d", rep.Completed, cfg.Arrivals)
	}
	if rep.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", rep.Errors)
	}
	if rep.NotFound != reports.Load() {
		t.Fatalf("NotFound = %d, want %d", rep.NotFound, reports.Load())
	}
	if got := rep.PerOp["report"].NotFound; got != reports.Load() {
		t.Fatalf("PerOp[report].NotFound = %d, want %d", got, reports.Load())
	}
	if rep.Overall.Count != int64(cfg.Arrivals) {
		t.Fatalf("Overall.Count = %d, want %d", rep.Overall.Count, cfg.Arrivals)
	}
	var perOpSum int64
	for _, op := range OpNames() {
		perOpSum += rep.PerOp[op].Count
	}
	if perOpSum != rep.Overall.Count {
		t.Fatalf("per-op counts sum to %d, overall %d", perOpSum, rep.Overall.Count)
	}
	if rep.AchievedRate <= 0 {
		t.Fatal("AchievedRate not computed")
	}
}

// TestCoordinatedOmissionHonesty is the reason this package exists: a
// single 50ms stall on one request must poison the recorded latency
// of the dozens of arrivals scheduled behind it on the same lane. A
// closed-loop generator would record one 50ms outlier and a clean
// tail; the open-loop schedule charges the queueing delay to every
// delayed request.
func TestCoordinatedOmissionHonesty(t *testing.T) {
	cfg := testConfig()
	cfg.Rate = 1000
	cfg.Arrivals = 200
	cfg.Clients = 1 // one lane: the stall's backlog is fully visible
	rep, err := Run(context.Background(), cfg, TargetFunc(func(_ context.Context, req *Request) error {
		if req.Seq == 50 {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Max < 0.050 {
		t.Fatalf("Max = %v, want >= the 50ms stall", rep.Overall.Max)
	}
	// Arrivals 51..~99 were scheduled during the stall; each records
	// the queueing delay it suffered. At least ~30 must exceed 10ms.
	delayed := int64(0)
	for i, bound := range rep.OverallHist.Bounds {
		if bound > 0.010 {
			delayed += rep.OverallHist.Buckets[i]
		}
	}
	delayed += rep.OverallHist.Buckets[len(rep.OverallHist.Buckets)-1]
	if delayed < 30 {
		t.Fatalf("only %d requests recorded > 10ms latency; open-loop accounting "+
			"should charge the stall to its whole backlog", delayed)
	}
	// The tail quantiles must see it too: 40+ poisoned of 200 puts
	// p90 well above a clean sub-millisecond baseline.
	if rep.Overall.P90 < 0.005 {
		t.Fatalf("P90 = %v, want the stall backlog to lift it above 5ms", rep.Overall.P90)
	}
	if rep.MaxSchedLag < 0.040 {
		t.Fatalf("MaxSchedLag = %v, want >= ~40ms (the generator must admit it fell behind)", rep.MaxSchedLag)
	}
}

// TestPhaseHooks checks Enter/Exit fire in order on the wall timeline
// and always unwind by the time Run returns.
func TestPhaseHooks(t *testing.T) {
	cfg := testConfig()
	cfg.Rate = 2000
	cfg.Arrivals = 400
	cfg.Clients = 8
	var entered, exited atomic.Int64
	cfg.Phases = []Phase{{
		Name: "outage", FromFrac: 0.25, ToFrac: 0.75,
		Enter: func() { entered.Store(time.Now().UnixNano()) },
		Exit:  func() { exited.Store(time.Now().UnixNano()) },
	}}
	if _, err := Run(context.Background(), cfg, TargetFunc(func(context.Context, *Request) error {
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	if entered.Load() == 0 || exited.Load() == 0 {
		t.Fatalf("hooks did not both fire: enter=%d exit=%d", entered.Load(), exited.Load())
	}
	if exited.Load() < entered.Load() {
		t.Fatal("Exit fired before Enter")
	}
}

// TestRunCancellation checks that a cancelled context aborts the run
// with an error instead of a partial report.
func TestRunCancellation(t *testing.T) {
	cfg := testConfig()
	cfg.Rate = 10 // nominal 100s: must be cut short
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var rep *Report
	var err error
	go func() {
		rep, err = Run(ctx, cfg, TargetFunc(func(context.Context, *Request) error { return nil }))
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled Run still returned a report")
	}
}

// TestConfigValidation spot-checks the rejection paths.
func TestConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"zero rate":       func(c *Config) { c.Rate = 0 },
		"no clients":      func(c *Config) { c.Clients = 0 },
		"no arrivals":     func(c *Config) { c.Arrivals = 0 },
		"zero zipf":       func(c *Config) { c.ZipfExponent = 0 },
		"overlap phases":  func(c *Config) { c.Phases = []Phase{{FromFrac: 0, ToFrac: 0.5}, {FromFrac: 0.4, ToFrac: 0.6}} },
		"inverted phase":  func(c *Config) { c.Phases = []Phase{{FromFrac: 0.5, ToFrac: 0.5}} },
		"phase past end":  func(c *Config) { c.Phases = []Phase{{FromFrac: 0.5, ToFrac: 1.5}} },
		"empty phase mix": func(c *Config) { c.Phases = []Phase{{FromFrac: 0.1, ToFrac: 0.2, Mix: &Mix{}}} },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			mutate(&cfg)
			if _, err := Run(context.Background(), cfg, TargetFunc(func(context.Context, *Request) error {
				return nil
			})); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}
