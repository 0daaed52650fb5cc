package benchkit

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/loadgen"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// SoakOptions parameterizes one open-loop soak run: a sustained
// campaign of concurrent simulated clients against a live vtapi
// server on loopback, measured with loadgen's coordinated-omission-
// proof accounting.
type SoakOptions struct {
	// Samples is the population size the campaign addresses.
	Samples int
	// Arrivals is the total request count (the 10^5 smoke default;
	// 10^6-10^7 are a flag away, the harness does not care).
	Arrivals int
	// Clients is the concurrent lane count.
	Clients int
	// Submitters is the distinct submitter-key count for the Zipf mix.
	Submitters int
	// Rate is the base offered load in requests/second.
	Rate float64
	// Zipf is the submitter-mix exponent.
	Zipf float64
	// Seed derives the whole workload.
	Seed int64
	// Storms enables the hostile overlays: a rescan storm, an
	// engine-outage wave, and a feed-lag spike.
	Storms bool
	// FeedWindow is the steady-state feed query span.
	FeedWindow time.Duration
	// FeedLimit caps each feed response at this many envelopes (the
	// paged catch-up read). Without it a lagging feed reader's
	// response grows with the backlog — cost quadratic in rate — and
	// the feed-lag phase saturates any box.
	FeedLimit int
	// Handicap multiplies every latency the record states (0 or 1
	// disables; Result.Handicapped) — the gate self-test: a handicapped
	// record against a clean one must fail the p50/p99 comparison. The
	// returned loadgen.Report keeps the measured latencies.
	Handicap float64
}

// withSoakDefaults fills unset knobs with the smoke-campaign values.
func (o SoakOptions) withSoakDefaults() SoakOptions {
	if o.Samples == 0 {
		o.Samples = 20000
	}
	if o.Arrivals == 0 {
		o.Arrivals = 100000
	}
	if o.Clients == 0 {
		o.Clients = 1000
	}
	if o.Submitters == 0 {
		o.Submitters = 5000
	}
	if o.Rate == 0 {
		o.Rate = 2000
	}
	if o.Zipf == 0 {
		o.Zipf = 1.1
	}
	if o.FeedWindow == 0 {
		o.FeedWindow = 2 * time.Second
	}
	if o.FeedLimit == 0 {
		o.FeedLimit = 200
	}
	return o
}

// soakPhases are the hostile overlays, defined on arrival fractions:
// a 3x rescan storm, an engine-outage wave downing ~30% of the
// roster, and a feed-lag spike where feed readers catch up over 40x
// the usual window in FeedLimit-sized pages. Enter/Exit inject and
// clear the outage on the live service.
func soakPhases(svc *vtsim.Service, seed int64) []loadgen.Phase {
	return []loadgen.Phase{
		{
			Name: "rescan-storm", FromFrac: 0.40, ToFrac: 0.55, RateMul: 3,
			Mix: &loadgen.Mix{Upload: 0.10, Report: 0.10, Rescan: 0.78, Feed: 0.02},
		},
		{
			Name: "outage-wave", FromFrac: 0.55, ToFrac: 0.70,
			Enter: func() { svc.SetOutageFraction(0.3, seed) },
			Exit:  func() { svc.SetEngineOutage() },
		},
		{
			Name: "feed-lag", FromFrac: 0.75, ToFrac: 0.85, FeedWindowMul: 40,
			Mix: &loadgen.Mix{Upload: 0.35, Report: 0.30, Rescan: 0.15, Feed: 0.20},
		},
	}
}

// RunSoak stands up a live stack (vtsim service with a real clock,
// vtapi server on loopback, one shared retrying client pool) and
// drives it with the open-loop generator. It returns the benchkit
// record for the gate plus the full loadgen report for artifacts.
//
// Unlike the rep-based scenarios, the soak's record is per-request:
// Stats quantiles are request latencies (median = p50), RepNS is the
// single wall time, and RepOps the completed request count.
func RunSoak(ctx context.Context, opts SoakOptions) (*Result, *loadgen.Report, error) {
	opts = opts.withSoakDefaults()
	reg := obs.NewRegistry()

	// The soak runs on the real clock (the generator's schedule is
	// wall time), so the engine window is a wide slice around now —
	// the same shape cmd/vtsimd uses in real-clock mode.
	now := time.Now()
	set, err := engine.NewSet(engine.DefaultRoster(), opts.Seed,
		now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0))
	if err != nil {
		return nil, nil, fmt.Errorf("benchkit: soak: %w", err)
	}
	samples, err := sampleset.Generate(sampleset.Config{Seed: opts.Seed, NumSamples: opts.Samples})
	if err != nil {
		return nil, nil, fmt.Errorf("benchkit: soak: %w", err)
	}
	svc := vtsim.NewService(set, simclock.Real{}, vtsim.WithMetrics(reg))
	srv, baseURL, err := serveLoopback(vtapi.NewServer(svc, nil, vtapi.WithMetrics(reg)))
	if err != nil {
		return nil, nil, fmt.Errorf("benchkit: soak: %w", err)
	}
	defer srv.Close()

	// One shared client: the transport's idle pool is sized to the
	// lane count so concurrent lanes reuse connections instead of
	// storming the dialer (ephemeral-port exhaustion at 10^6+ scale).
	transport := &http.Transport{
		MaxIdleConns:        opts.Clients,
		MaxIdleConnsPerHost: opts.Clients,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	cl := vtclient.New(baseURL,
		vtclient.WithMetrics(reg),
		vtclient.WithHTTPClient(&http.Client{Transport: transport, Timeout: 30 * time.Second}),
		vtclient.WithBackoff(time.Millisecond))

	target := loadgen.TargetFunc(func(ctx context.Context, req *loadgen.Request) error {
		s := samples[req.Sample]
		var err error
		switch req.Kind {
		case loadgen.KindUpload:
			_, err = cl.Upload(ctx, vtapi.UploadDescriptor{
				SHA256:        s.SHA256,
				FileType:      s.FileType,
				Size:          s.Size,
				Malicious:     s.Malicious,
				Detectability: s.Detectability,
			})
		case loadgen.KindReport:
			_, err = cl.Report(ctx, s.SHA256)
		case loadgen.KindRescan:
			_, err = cl.Rescan(ctx, s.SHA256)
		case loadgen.KindFeed:
			// The feed wire format is Unix seconds, so the window is
			// clamped to whole seconds >= 1 or the server rejects
			// to == from. The page cap keeps one response bounded no
			// matter how far back the window reaches.
			secs := int64(req.FeedWindow / time.Second)
			if secs < 1 {
				secs = 1
			}
			to := req.Scheduled
			_, err = cl.FeedBetweenLimit(ctx, to.Add(-time.Duration(secs)*time.Second), to, opts.FeedLimit)
		}
		if errors.Is(err, vtclient.ErrNotFound) {
			// Reports and rescans legitimately race ahead of a
			// sample's first upload under an open-loop mix.
			return fmt.Errorf("%w: %v", loadgen.ErrNotFound, err)
		}
		return err
	})

	cfg := loadgen.Config{
		Rate:         opts.Rate,
		Clients:      opts.Clients,
		Arrivals:     opts.Arrivals,
		Seed:         opts.Seed,
		Submitters:   opts.Submitters,
		ZipfExponent: opts.Zipf,
		Samples:      opts.Samples,
		FeedWindow:   opts.FeedWindow,
		Metrics:      reg,
	}
	if opts.Storms {
		cfg.Phases = soakPhases(svc, opts.Seed)
	}
	rep, err := loadgen.Run(ctx, cfg, target)
	if err != nil {
		return nil, nil, fmt.Errorf("benchkit: soak: %w", err)
	}

	// A soak that dropped or hard-failed requests has no business
	// recording a baseline: the latency distribution of a partial run
	// is not comparable to anything.
	if rep.Completed != int64(opts.Arrivals) {
		return nil, nil, fmt.Errorf("benchkit: soak: completed %d of %d arrivals", rep.Completed, opts.Arrivals)
	}
	if rep.Errors != 0 {
		return nil, nil, fmt.Errorf("benchkit: soak: %d hard errors (see loadgen_requests_total{outcome=\"error\"})", rep.Errors)
	}
	// Wire-level invariant, same as the api scenario: both ends share
	// the registry, so every client attempt must be a served request.
	attempts := reg.SumCounters("client_attempts_total")
	served := reg.SumCounters("api_requests_total")
	if attempts != served {
		return nil, nil, fmt.Errorf("benchkit: soak: client sent %d attempts, server counted %d", attempts, served)
	}

	sec := func(s float64) float64 { return s * 1e9 }
	res := &Result{
		Schema:   SchemaVersion,
		Scenario: "soak",
		Profile:  "soak",
		Seed:     opts.Seed,
		Params: map[string]any{
			"samples":        opts.Samples,
			"arrivals":       opts.Arrivals,
			"clients":        opts.Clients,
			"submitters":     opts.Submitters,
			"rate":           opts.Rate,
			"zipf":           opts.Zipf,
			"storms":         opts.Storms,
			"feed_window_ns": opts.FeedWindow.Nanoseconds(),
			"feed_limit":     opts.FeedLimit,
		},
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		UnixTime:   time.Now().Unix(),
		RepNS:      []int64{rep.WallNS},
		RepOps:     []int64{rep.Completed},
		Stats: Stats{
			MedianNS:  sec(rep.Overall.P50),
			P90NS:     sec(rep.Overall.P90),
			P99NS:     sec(rep.Overall.P99),
			P999NS:    sec(rep.Overall.P999),
			MaxNS:     int64(sec(rep.Overall.Max)),
			MeanNS:    sec(rep.OverallHist.Sum / float64(rep.OverallHist.Count)),
			OpsPerSec: rep.AchievedRate,
		},
		Obs: reg.Snapshot(),
	}
	if opts.Handicap > 1 {
		res = res.Handicapped(opts.Handicap)
	}
	return res, rep, nil
}
