// Package feed implements the paper's data-collection loop (§4.1):
// "We called this interface every minute and VirusTotal returned us
// all the scan reports generated in that minute. We cached and parsed
// the scan reports, compressed them, and stored them."
//
// The Collector polls a Source minute by minute over a virtual
// window, forwarding every envelope to a Sink. Both ends are small
// interfaces so the collector runs identically against an in-process
// vtsim.Service or an HTTP vtclient.Client.
package feed

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

// Source serves feed slices: all reports generated in [from, to).
type Source interface {
	FeedBetween(ctx context.Context, from, to time.Time) ([]report.Envelope, error)
}

// Sink consumes collected envelopes (e.g. the compressed store).
type Sink interface {
	Put(env report.Envelope) error
}

// BatchSink is an optional Sink upgrade: sinks that can commit a
// whole feed slice at once (store.PutBatch amortizes the partition
// lock this way). The collector uses it when available.
type BatchSink interface {
	Sink
	PutBatch(envs []report.Envelope) error
}

// Syncer is an optional Sink upgrade: sinks that can make buffered
// rows durable without tearing down their writers (store.Sync appends
// them to its fsynced checkpoint journal and cuts nothing). Resumable
// runs sync the sink before every checkpoint save, so the cursor never
// claims slices whose rows could still be lost in a crash.
type Syncer interface {
	Sync() error
}

// SourceFunc adapts a function to Source.
type SourceFunc func(ctx context.Context, from, to time.Time) ([]report.Envelope, error)

// FeedBetween implements Source.
func (f SourceFunc) FeedBetween(ctx context.Context, from, to time.Time) ([]report.Envelope, error) {
	return f(ctx, from, to)
}

// SinkFunc adapts a function to Sink.
type SinkFunc func(env report.Envelope) error

// Put implements Sink.
func (f SinkFunc) Put(env report.Envelope) error { return f(env) }

// Stats summarizes one collection run.
type Stats struct {
	// Polls is the number of feed calls made (one per minute of the
	// window).
	Polls int
	// Envelopes is the number of reports collected.
	Envelopes int
	// Samples is the number of distinct sample hashes seen.
	Samples int
}

// Collector polls a Source and stores into a Sink.
type Collector struct {
	source Source
	sink   Sink
	// Interval is the poll period; the paper used one minute.
	Interval time.Duration
	// Workers is the number of concurrent feed fetches. Values <= 1
	// poll serially (the paper's loop). With W > 1, up to W slices are
	// fetched in flight at once while commits to the sink stay in
	// strict slice order — so sink contents, stats, and checkpoint
	// semantics are identical to the serial run, only the fetch
	// latency overlaps.
	Workers int
	// Metrics receives the collector's instrumentation (windows
	// fetched/committed, in-flight slices, frontier, checkpoint lag,
	// fetch latency). Nil uses the process-wide default registry.
	Metrics *obs.Registry
}

// collectorMetrics caches the collector's series for one run so the
// poll loop never touches the registry map.
type collectorMetrics struct {
	fetched   *obs.Counter
	envelopes *obs.Counter
	committed *obs.Counter
	inflight  *obs.Gauge
	frontier  *obs.Gauge
	lag       *obs.Gauge
	fetch     *obs.Histogram
}

func (c *Collector) metrics() collectorMetrics {
	reg := c.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	return collectorMetrics{
		fetched:   reg.Counter("collector_fetched_windows_total"),
		envelopes: reg.Counter("collector_envelopes_total"),
		committed: reg.Counter("collector_committed_windows_total"),
		inflight:  reg.Gauge("collector_inflight_slices"),
		frontier:  reg.Gauge("collector_frontier_unix"),
		lag:       reg.Gauge("collector_checkpoint_lag_seconds"),
		fetch:     reg.Histogram("collector_fetch_seconds", obs.DefBuckets),
	}
}

// committed records one window [.., to) durably stored: the commit
// counter, the frontier, and how far the frontier still lags the end
// of the requested window.
func (m collectorMetrics) commitWindow(to, end time.Time) {
	m.committed.Inc()
	m.frontier.Set(to.Unix())
	m.lag.Set(int64(end.Sub(to).Seconds()))
}

// NewCollector builds a collector with the paper's one-minute poll
// interval and serial fetching; set Workers for concurrent fetches.
func NewCollector(source Source, sink Sink) *Collector {
	return &Collector{source: source, sink: sink, Interval: time.Minute}
}

// Run collects the window [start, end) in Interval steps. Each poll
// covers exactly one interval, so no report can be missed or
// double-fetched; commits are in slice order even with Workers > 1.
// ctx cancels a long run.
func (c *Collector) Run(ctx context.Context, start, end time.Time) (Stats, error) {
	return c.collect(ctx, start, end, nil)
}

// commitSlice stores one slice's envelopes and folds them into stats.
func (c *Collector) commitSlice(m collectorMetrics, envs []report.Envelope, seen map[string]bool, stats *Stats) error {
	if bs, ok := c.sink.(BatchSink); ok {
		if err := bs.PutBatch(envs); err != nil {
			return fmt.Errorf("feed: store: %w", err)
		}
	} else {
		for _, env := range envs {
			if err := c.sink.Put(env); err != nil {
				return fmt.Errorf("feed: store: %w", err)
			}
		}
	}
	stats.Envelopes += len(envs)
	m.envelopes.Add(int64(len(envs)))
	for _, env := range envs {
		if !seen[env.Meta.SHA256] {
			seen[env.Meta.SHA256] = true
			stats.Samples++
		}
	}
	return nil
}

// collect is the shared engine behind Run and RunResumable: cursor is
// nil for uncheckpointed runs.
func (c *Collector) collect(ctx context.Context, start, end time.Time, cursor Cursor) (Stats, error) {
	var stats Stats
	from := start
	if cursor != nil {
		if frontier, ok, err := cursor.Load(); err != nil {
			return stats, err
		} else if ok {
			if frontier.After(end) {
				return stats, fmt.Errorf("%w: %v > %v", ErrCursorAhead, frontier, end)
			}
			if frontier.After(from) {
				from = frontier
			}
		}
	}
	if c.Workers > 1 {
		return c.collectConcurrent(ctx, from, end, cursor)
	}
	m := c.metrics()
	seen := make(map[string]bool)
	for ; from.Before(end); from = from.Add(c.Interval) {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		to := from.Add(c.Interval)
		if to.After(end) {
			to = end
		}
		m.inflight.Add(1)
		fetchStart := time.Now()
		envs, err := c.source.FeedBetween(ctx, from, to)
		m.fetch.ObserveDuration(time.Since(fetchStart))
		m.inflight.Add(-1)
		if err != nil {
			return stats, fmt.Errorf("feed: poll [%v, %v): %w", from, to, err)
		}
		m.fetched.Inc()
		stats.Polls++
		if err := c.commitSlice(m, envs, seen, &stats); err != nil {
			return stats, err
		}
		if cursor != nil {
			if err := c.syncSink(); err != nil {
				return stats, err
			}
			if err := cursor.Save(to); err != nil {
				return stats, err
			}
		}
		m.commitWindow(to, end)
	}
	return stats, nil
}

// syncSink makes committed rows durable before a checkpoint advances.
func (c *Collector) syncSink() error {
	if sy, ok := c.sink.(Syncer); ok {
		if err := sy.Sync(); err != nil {
			return fmt.Errorf("feed: sync: %w", err)
		}
	}
	return nil
}

// fetchResult carries one slice's envelopes from a worker to the
// committer.
type fetchResult struct {
	from, to time.Time
	envs     []report.Envelope
	err      error
}

// collectConcurrent fans slice fetches out to c.Workers goroutines
// while committing in slice order. In-flight slices are bounded by
// the worker count (plus the promise buffer), giving natural
// backpressure when the sink is the bottleneck.
func (c *Collector) collectConcurrent(ctx context.Context, start, end time.Time, cursor Cursor) (Stats, error) {
	var stats Stats
	if !start.Before(end) {
		return stats, ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	m := c.metrics()
	type promise chan fetchResult
	workers := c.Workers
	// promises delivers per-slice result channels to the committer in
	// dispatch order; its buffer bounds the number of in-flight slices.
	promises := make(chan promise, workers)
	jobs := make(chan struct {
		p        promise
		from, to time.Time
	}, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if err := ctx.Err(); err != nil {
					job.p <- fetchResult{from: job.from, to: job.to, err: err}
					continue
				}
				fetchStart := time.Now()
				envs, err := c.source.FeedBetween(ctx, job.from, job.to)
				m.fetch.ObserveDuration(time.Since(fetchStart))
				if err == nil {
					m.fetched.Inc()
				}
				job.p <- fetchResult{from: job.from, to: job.to, envs: envs, err: err}
			}
		}()
	}
	go func() {
		defer close(promises)
		defer close(jobs)
		for from := start; from.Before(end); from = from.Add(c.Interval) {
			if ctx.Err() != nil {
				return
			}
			to := from.Add(c.Interval)
			if to.After(end) {
				to = end
			}
			p := make(promise, 1)
			select {
			case promises <- p:
				m.inflight.Add(1)
			case <-ctx.Done():
				return
			}
			jobs <- struct {
				p        promise
				from, to time.Time
			}{p, from, to}
		}
	}()
	defer wg.Wait()

	seen := make(map[string]bool)
	for p := range promises {
		res := <-p
		m.inflight.Add(-1)
		if res.err != nil {
			cancel()
			if res.err == ctx.Err() {
				return stats, res.err
			}
			return stats, fmt.Errorf("feed: poll [%v, %v): %w", res.from, res.to, res.err)
		}
		stats.Polls++
		if err := c.commitSlice(m, res.envs, seen, &stats); err != nil {
			cancel()
			return stats, err
		}
		if cursor != nil {
			if err := c.syncSink(); err != nil {
				cancel()
				return stats, err
			}
			if err := cursor.Save(res.to); err != nil {
				cancel()
				return stats, err
			}
		}
		m.commitWindow(res.to, end)
	}
	return stats, ctx.Err()
}

// RunHourly is Run with a coarser step for long windows where
// minute-resolution polling would be needlessly slow in simulation;
// the semantics (disjoint, complete coverage) are identical.
func (c *Collector) RunHourly(ctx context.Context, start, end time.Time) (Stats, error) {
	saved := c.Interval
	c.Interval = time.Hour
	defer func() { c.Interval = saved }()
	return c.Run(ctx, start, end)
}
