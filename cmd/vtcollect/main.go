// Command vtcollect is the paper's data collector (§4.1): it polls a
// VT-style feed endpoint every interval and stores every returned
// scan report into the compressed monthly store.
//
// Usage:
//
//	vtcollect -api http://127.0.0.1:8099 -store ./data \
//	          -from 2021-05-01 -to 2022-07-01 [-interval 1m] [-workers 8]
//
// On completion it prints the collection statistics and the per-month
// store accounting (the Table 2 analogue). With -metrics DUR the
// collector also dumps its live metrics (collector, client, and store
// series from internal/obs — among them the checkpoint journal's
// store_journal_records_total, _bytes_total, _folds_total and, after
// resuming a killed run, _replayed_rows_total) to stderr every DUR
// while running.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtclient"
)

// options are the parsed command-line flags.
type options struct {
	api      string
	dir      string
	from, to time.Time
	interval time.Duration
	apiKey   string
	workers  int
	metrics  time.Duration
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("vtcollect", flag.ContinueOnError)
	var (
		api      = fs.String("api", "http://127.0.0.1:8099", "VT API base URL")
		dir      = fs.String("store", "./vtdata", "store directory")
		fromStr  = fs.String("from", "2021-05-01", "collection start (YYYY-MM-DD)")
		toStr    = fs.String("to", "2022-07-01", "collection end (YYYY-MM-DD)")
		interval = fs.Duration("interval", time.Minute, "poll interval")
		apiKey   = fs.String("apikey", "", "API key (the feed requires a premium-tier key when the server enforces auth)")
		workers  = fs.Int("workers", 1, "concurrent feed fetches (commits stay in slice order; 1 = the paper's serial loop)")
		metrics  = fs.Duration("metrics", 0, "dump live metrics to stderr at this period (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	from, err := time.Parse("2006-01-02", *fromStr)
	if err != nil {
		return nil, fmt.Errorf("bad -from: %w", err)
	}
	to, err := time.Parse("2006-01-02", *toStr)
	if err != nil {
		return nil, fmt.Errorf("bad -to: %w", err)
	}
	if !from.Before(to) {
		return nil, fmt.Errorf("-from %s is not before -to %s", *fromStr, *toStr)
	}
	if *interval <= 0 {
		return nil, fmt.Errorf("bad -interval %v: want > 0", *interval)
	}
	if *workers < 1 {
		return nil, fmt.Errorf("bad -workers %d: want >= 1", *workers)
	}
	return &options{
		api:      *api,
		dir:      *dir,
		from:     from.UTC(),
		to:       to.UTC(),
		interval: *interval,
		apiKey:   *apiKey,
		workers:  *workers,
		metrics:  *metrics,
	}, nil
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fatal(err)
	}

	st, err := store.Open(opts.dir)
	if err != nil {
		fatal(err)
	}
	var copts []vtclient.Option
	if opts.apiKey != "" {
		copts = append(copts, vtclient.WithAPIKey(opts.apiKey))
	}
	client := vtclient.New(opts.api, copts...)

	// The store commits whole slices at once (BatchSink); -workers
	// overlaps the HTTP fetch latency while commits and checkpoints
	// stay in slice order.
	collector := feed.NewCollector(
		feed.SourceFunc(func(ctx context.Context, a, b time.Time) ([]report.Envelope, error) {
			return client.FeedBetween(ctx, a, b)
		}),
		st,
	)
	collector.Interval = opts.interval
	collector.Workers = opts.workers

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if opts.metrics > 0 {
		go func() {
			ticker := time.NewTicker(opts.metrics)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					fmt.Fprintln(os.Stderr, "vtcollect metrics:", obs.Default().Summary())
				}
			}
		}()
	}

	// Checkpointed collection: an interrupted campaign resumes at the
	// first unfetched slice on the next invocation. The store is a
	// feed.Syncer, so the collector journals each slice's rows (one
	// fsynced append to the store's checkpoint.log) before its
	// checkpoint advances — the cursor never claims slices that could
	// be lost in a crash, and unlike a Flush no under-filled block is
	// cut: a checkpoint costs what the slice holds, not what the store
	// holds. Close folds the journal away; a killed run's is replayed
	// by the next Open.
	cursor := &feed.FileCursor{Path: filepath.Join(opts.dir, "collect.cursor")}
	stats, err := collector.RunResumable(ctx, opts.from, opts.to, cursor)
	if cerr := st.Close(); cerr != nil && err == nil {
		err = cerr
	}
	fmt.Printf("polls %d, envelopes %d, distinct samples %d\n",
		stats.Polls, stats.Envelopes, stats.Samples)
	for _, month := range st.Months() {
		ps := st.Stats(month)
		fmt.Printf("%s  reports %8d  stored %10d B  raw %12d B  (%.2fx)\n",
			month, ps.Reports, ps.StoredBytes, ps.RawBytes, ps.CompressionRatio())
	}
	if opts.metrics > 0 {
		fmt.Fprintln(os.Stderr, "vtcollect metrics:", obs.Default().Summary())
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vtcollect:", err)
	os.Exit(1)
}
