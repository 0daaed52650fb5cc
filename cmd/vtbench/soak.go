package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vtdynamics/internal/benchkit"
	"vtdynamics/internal/loadgen"
	"vtdynamics/internal/obs"
)

// soakOptions are the parsed `vtbench soak` flags.
type soakOptions struct {
	soak    benchkit.SoakOptions
	out     string
	histout string
}

func parseSoakFlags(args []string, stderr io.Writer) (*soakOptions, error) {
	fs := flag.NewFlagSet("vtbench soak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		samples    = fs.Int("samples", 20000, "sample population size")
		arrivals   = fs.Int("arrivals", 100000, "total scheduled requests (1e5 smoke; 1e6-1e7 for long soaks)")
		clients    = fs.Int("clients", 1000, "concurrent client lanes")
		submitters = fs.Int("submitters", 5000, "distinct submitter keys in the Zipf mix")
		rate       = fs.Float64("rate", 2000, "base arrival rate in requests/second (open loop: offered regardless of latency)")
		zipf       = fs.Float64("zipf", 1.1, "submitter-mix Zipf exponent")
		seed       = fs.Int64("seed", 1, "workload seed (records with different seeds never compare)")
		storms     = fs.Bool("storms", false, "enable the hostile phases: rescan storm, engine-outage wave, feed-lag spike")
		feedwindow = fs.Duration("feedwindow", 2*time.Second, "steady-state feed query span")
		feedlimit  = fs.Int("feedlimit", 200, "page cap per feed response in envelopes (paged catch-up reads)")
		out        = fs.String("out", ".", "directory receiving BENCH_soak.json")
		handicap   = fs.Float64("handicap", 1, "multiply every latency the record states (gate self-test; >= 1)")
		histout    = fs.String("histout", "", "write the per-op latency histograms as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch {
	case *arrivals < 1:
		return nil, fmt.Errorf("bad -arrivals %d: want >= 1", *arrivals)
	case *rate <= 0:
		return nil, fmt.Errorf("bad -rate %v: want > 0", *rate)
	case *handicap < 1:
		return nil, fmt.Errorf("bad -handicap %v: want >= 1", *handicap)
	case *feedlimit < 1:
		return nil, fmt.Errorf("bad -feedlimit %d: want >= 1", *feedlimit)
	}
	return &soakOptions{
		soak: benchkit.SoakOptions{
			Samples:    *samples,
			Arrivals:   *arrivals,
			Clients:    *clients,
			Submitters: *submitters,
			Rate:       *rate,
			Zipf:       *zipf,
			Seed:       *seed,
			Storms:     *storms,
			FeedWindow: *feedwindow,
			FeedLimit:  *feedlimit,
			Handicap:   *handicap,
		},
		out:     *out,
		histout: *histout,
	}, nil
}

// soakHistArtifact is the -histout JSON layout: the raw bucketed
// latency distributions the quantiles were extracted from, so a CI
// artifact carries the full shape, not four summary numbers.
type soakHistArtifact struct {
	Overall obs.HistSnapshot            `json:"overall"`
	PerOp   map[string]obs.HistSnapshot `json:"per_op"`
	// SchedLagMax is the generator's worst lateness in seconds — the
	// honesty bound on the schedule itself.
	SchedLagMax float64 `json:"sched_lag_max"`
}

func cmdSoak(args []string, stdout, stderr io.Writer) int {
	opts, err := parseSoakFlags(args, stderr)
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
	if d, err := loadgen.Duration(soakSchedule(opts.soak)); err == nil {
		fmt.Fprintf(stdout, "soak: %d arrivals at %.0f/s base rate over %d lanes (nominal %s)\n",
			opts.soak.Arrivals, opts.soak.Rate, opts.soak.Clients, d.Round(time.Second))
	}
	res, rep, err := benchkit.RunSoak(context.Background(), opts.soak)
	if err != nil {
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	path, err := res.WriteFile(opts.out)
	if err != nil {
		fmt.Fprintln(stderr, "vtbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "soak: achieved %.0f req/s, %d not-found, sched-lag max %.1fms\n",
		rep.AchievedRate, rep.NotFound, rep.MaxSchedLag*1e3)
	fmt.Fprintf(stdout, "%-8s %10s %10s %10s %10s %10s %8s\n",
		"op", "p50", "p90", "p99", "p99.9", "max", "count")
	ms := func(s float64) string { return fmt.Sprintf("%.2fms", s*1e3) }
	for _, op := range append(loadgen.OpNames(), "all") {
		st := rep.Overall
		if op != "all" {
			st = rep.PerOp[op]
		}
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%-8s %10s %10s %10s %10s %10s %8d\n",
			op, ms(st.P50), ms(st.P90), ms(st.P99), ms(st.P999), ms(st.Max), st.Count)
	}
	fmt.Fprintf(stdout, "-> %s\n", path)
	if opts.histout != "" {
		b, err := json.MarshalIndent(soakHistArtifact{
			Overall:     rep.OverallHist,
			PerOp:       rep.PerOpHist,
			SchedLagMax: rep.MaxSchedLag,
		}, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		if err := os.WriteFile(opts.histout, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "vtbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "-> %s\n", opts.histout)
	}
	return 0
}

// soakSchedule mirrors benchkit's loadgen config closely enough to
// preview the nominal duration (phases shift it only when storms are
// on, and only by the storm's compression).
func soakSchedule(o benchkit.SoakOptions) loadgen.Config {
	cfg := loadgen.Config{
		Rate:         o.Rate,
		Clients:      o.Clients,
		Arrivals:     o.Arrivals,
		Seed:         o.Seed,
		Submitters:   o.Submitters,
		ZipfExponent: o.Zipf,
		Samples:      o.Samples,
		FeedWindow:   o.FeedWindow,
	}
	if o.Storms {
		cfg.Phases = []loadgen.Phase{{Name: "rescan-storm", FromFrac: 0.40, ToFrac: 0.55, RateMul: 3}}
	}
	return cfg
}
