// Package loadgen is the open-loop sustained-load generator behind
// `vtbench soak`: it schedules request arrivals on a fixed timeline
// derived only from the configuration — never from response latency —
// and measures each request's latency from its *scheduled* start, so
// a stalled server inflates the recorded tail instead of silently
// slowing the offered load.
//
// Why open loop: a closed-loop generator (issue, wait, issue) is a
// feedback controller — when the target stalls, the generator stops
// offering load, and the stall's queueing cost disappears from the
// record. This is the coordinated-omission trap; real submitters (the
// paper's millions of users, Maat's heavy-tailed feed producers) do
// not politely pause when VT is slow. Here, arrival i's timestamp is
// a pure function of (rate schedule, i); a worker that falls behind
// fires late, and the lateness is charged to every affected request.
//
// Workload shape:
//
//   - Arrivals are split round-robin across Clients independent
//     lanes; each lane sleeps until its next scheduled instant. A
//     slow response delays only that lane's subsequent arrivals,
//     which then record the queueing delay they actually suffered.
//   - Each request's kind, submitter, and target sample derive
//     deterministically from (Seed, sequence number), so two runs at
//     one seed offer byte-equal workloads regardless of timing.
//   - Submitters are Zipf-distributed: a handful of heavy keys
//     dominate traffic, per the per-submitter tails Maat and van
//     Liebergen et al. measured on the real VT feed.
//   - Phases overlay hostile scenarios on index ranges of the run:
//     arrival-rate storms, operation-mix shifts (rescan storms),
//     feed-window amplification (feed-lag catch-up reads), and
//     Enter/Exit hooks for out-of-band injection (engine outages).
//
// Latency is recorded into per-operation obs histograms
// (loadgen_request_seconds{op}) with exponential buckets, plus exact
// per-op maxima tracked outside the histogram (fixed buckets cannot
// resolve beyond their last bound). Report extracts p50/p90/p99/p99.9
// via obs quantile interpolation.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vtdynamics/internal/obs"
)

// Kind is a request operation type.
type Kind uint8

const (
	// KindUpload submits a (possibly new) sample for analysis.
	KindUpload Kind = iota
	// KindReport fetches a sample's latest report.
	KindReport
	// KindRescan re-analyzes an existing sample.
	KindRescan
	// KindFeed pulls a feed slice covering Request.FeedWindow.
	KindFeed
	numKinds
)

// String returns the op label used in metrics series.
func (k Kind) String() string {
	switch k {
	case KindUpload:
		return "upload"
	case KindReport:
		return "report"
	case KindRescan:
		return "rescan"
	case KindFeed:
		return "feed"
	}
	return "unknown"
}

// OpNames lists the op labels in Kind order.
func OpNames() []string { return []string{"upload", "report", "rescan", "feed"} }

// Mix is the relative weight of each operation kind. Weights need not
// sum to 1; they only need a positive total.
type Mix struct {
	Upload float64
	Report float64
	Rescan float64
	Feed   float64
}

func (m Mix) weights() [numKinds]float64 {
	return [numKinds]float64{m.Upload, m.Report, m.Rescan, m.Feed}
}

func (m Mix) total() float64 { return m.Upload + m.Report + m.Rescan + m.Feed }

// DefaultMix is the steady-state operation blend: mostly submissions
// and report reads, like the paper's API traffic.
var DefaultMix = Mix{Upload: 0.50, Report: 0.32, Rescan: 0.13, Feed: 0.05}

// Phase overlays a hostile scenario on a slice of the run. FromFrac
// and ToFrac address the arrival index axis (fractions of Arrivals),
// so a phase covers an exact, deterministic set of requests; its wall
// window follows from the rate schedule.
type Phase struct {
	Name string
	// FromFrac/ToFrac bound the phase's arrival indexes:
	// [FromFrac*Arrivals, ToFrac*Arrivals). Phases must be sorted and
	// non-overlapping with 0 <= FromFrac < ToFrac <= 1.
	FromFrac, ToFrac float64
	// RateMul multiplies the base arrival rate inside the phase
	// (storms compress the timeline); 0 means unchanged.
	RateMul float64
	// Mix overrides the operation mix inside the phase; nil keeps the
	// config mix.
	Mix *Mix
	// FeedWindowMul multiplies the feed window of feed requests in the
	// phase (feed-lag catch-up reads span much more history); 0 means
	// unchanged.
	FeedWindowMul float64
	// Enter and Exit run on the phase's wall boundaries (e.g. taking
	// engines down and bringing them back). Either may be nil.
	Enter, Exit func()
}

// Request is one scheduled arrival, handed to the Target.
type Request struct {
	// Seq is the arrival index in [0, Arrivals).
	Seq int
	// Kind is the operation to perform.
	Kind Kind
	// Submitter is the Zipf-drawn submitter key in [0, Submitters).
	Submitter int
	// Sample indexes the population in [0, Samples): which sample to
	// upload, fetch, or rescan.
	Sample int
	// FeedWindow is how much history a KindFeed request spans.
	FeedWindow time.Duration
	// Scheduled is the arrival's place on the fixed timeline; latency
	// is measured from here.
	Scheduled time.Time
}

// ErrNotFound reports that the target rejected the request because
// the addressed resource does not exist yet — an expected outcome
// under open-loop mixes (a report may race ahead of the sample's
// first upload), counted separately from errors.
var ErrNotFound = errors.New("loadgen: resource not found")

// Target executes one request. Implementations map ErrNotFound-class
// rejections onto ErrNotFound (via errors.Is-compatible wrapping);
// any other error counts as a hard failure.
type Target interface {
	Do(ctx context.Context, req *Request) error
}

// TargetFunc adapts a function to Target.
type TargetFunc func(ctx context.Context, req *Request) error

// Do implements Target.
func (f TargetFunc) Do(ctx context.Context, req *Request) error { return f(ctx, req) }

// Config parameterizes one open-loop run.
type Config struct {
	// Rate is the base arrival rate in requests/second.
	Rate float64
	// Clients is the number of concurrent lanes arrivals are split
	// across (round-robin). Thousands are fine: lanes are goroutines.
	Clients int
	// Arrivals is the total scheduled request count.
	Arrivals int
	// Seed derives the whole workload (kinds, submitters, samples).
	Seed int64
	// Submitters is the number of distinct submitter keys.
	Submitters int
	// ZipfExponent shapes the per-submitter traffic tail: weight of
	// submitter k is (k+1)^-ZipfExponent. Must be > 0; 1.0–1.5 covers
	// the skew measured on real VT traffic.
	ZipfExponent float64
	// Samples is the population size requests address.
	Samples int
	// Mix is the steady-state operation mix; zero value selects
	// DefaultMix.
	Mix Mix
	// FeedWindow is the history span of a steady-state feed request.
	FeedWindow time.Duration
	// Phases are the hostile overlays, sorted by FromFrac.
	Phases []Phase
	// Metrics receives the generator's series; nil uses a private
	// registry (never the process default — soak runs must not bleed
	// into unrelated snapshots).
	Metrics *obs.Registry
}

// LatencyBuckets are the request-latency histogram bounds: 100µs to
// ~11s at 25% relative resolution, so p99.9 extraction interpolates
// within a quarter-decade everywhere in the plausible range.
var LatencyBuckets = obs.ExpBuckets(100e-6, 1.25, 52)

// OpStats summarizes one operation's (or the whole run's) measured
// latency distribution, in seconds.
type OpStats struct {
	Count    int64
	NotFound int64
	Errors   int64
	P50      float64
	P90      float64
	P99      float64
	P999     float64
	Max      float64
}

// Report is the outcome of one run.
type Report struct {
	// Arrivals is the scheduled request count (== Config.Arrivals).
	Arrivals int
	// Completed counts requests that executed (any outcome).
	Completed int64
	// NotFound and Errors partition the non-OK outcomes.
	NotFound int64
	Errors   int64
	// WallNS is the run's wall-clock from first scheduled arrival to
	// last completion.
	WallNS int64
	// AchievedRate is Completed divided by wall seconds.
	AchievedRate float64
	// Overall aggregates every operation; PerOp splits by op label.
	Overall OpStats
	PerOp   map[string]OpStats
	// OverallHist is the merged latency histogram the quantiles were
	// extracted from; PerOpHist the per-operation histograms.
	OverallHist obs.HistSnapshot
	PerOpHist   map[string]obs.HistSnapshot
	// MaxSchedLag is the worst lateness (seconds) between an
	// arrival's scheduled instant and its lane actually starting it —
	// the generator's own honesty bound. Backlogged lanes make this
	// large on purpose: the delay is real and charged to latency.
	MaxSchedLag float64
}

// segment is one constant-rate stretch of the arrival timeline.
type segment struct {
	firstSeq int           // first arrival index in the segment
	start    time.Duration // timeline offset of firstSeq's arrival
	interval float64       // seconds between arrivals
}

// plan is the fully-resolved deterministic schedule.
type plan struct {
	cfg      Config
	segments []segment
	// phaseBySeg[i] indexes cfg.Phases (or -1) for segments[i].
	phaseBySeg []int
	zipfCum    []float64
	end        time.Duration // offset just past the last arrival
}

func (c *Config) validate() error {
	switch {
	case c.Rate <= 0:
		return fmt.Errorf("loadgen: Rate %v, want > 0", c.Rate)
	case c.Clients < 1:
		return fmt.Errorf("loadgen: Clients %d, want >= 1", c.Clients)
	case c.Arrivals < 1:
		return fmt.Errorf("loadgen: Arrivals %d, want >= 1", c.Arrivals)
	case c.Submitters < 1:
		return fmt.Errorf("loadgen: Submitters %d, want >= 1", c.Submitters)
	case c.Samples < 1:
		return fmt.Errorf("loadgen: Samples %d, want >= 1", c.Samples)
	case c.ZipfExponent <= 0:
		return fmt.Errorf("loadgen: ZipfExponent %v, want > 0", c.ZipfExponent)
	case c.FeedWindow <= 0:
		return fmt.Errorf("loadgen: FeedWindow %v, want > 0", c.FeedWindow)
	}
	if c.Mix.total() <= 0 {
		return fmt.Errorf("loadgen: Mix has no positive weight")
	}
	prev := 0.0
	for i, p := range c.Phases {
		if p.FromFrac < prev || p.ToFrac <= p.FromFrac || p.ToFrac > 1 {
			return fmt.Errorf("loadgen: phase %d (%q) window [%v, %v) invalid or overlapping",
				i, p.Name, p.FromFrac, p.ToFrac)
		}
		if p.Mix != nil && p.Mix.total() <= 0 {
			return fmt.Errorf("loadgen: phase %d (%q) mix has no positive weight", i, p.Name)
		}
		prev = p.ToFrac
	}
	return nil
}

// newPlan resolves the segment table and the Zipf cumulative weights.
func newPlan(cfg Config) (*plan, error) {
	if cfg.Mix.total() == 0 {
		cfg.Mix = DefaultMix
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &plan{cfg: cfg}

	// Build constant-rate segments by walking the phase boundaries on
	// the arrival-index axis and accumulating wall offsets.
	type boundary struct {
		seq   int
		phase int // phase starting here, or -1
	}
	var bounds []boundary
	bounds = append(bounds, boundary{0, -1})
	for i, ph := range cfg.Phases {
		from := int(ph.FromFrac * float64(cfg.Arrivals))
		to := int(ph.ToFrac * float64(cfg.Arrivals))
		if from >= to { // degenerate at this Arrivals count: skip
			continue
		}
		bounds = append(bounds, boundary{from, i}, boundary{to, -1})
	}
	sort.SliceStable(bounds, func(i, j int) bool { return bounds[i].seq < bounds[j].seq })

	offset := time.Duration(0)
	for i, b := range bounds {
		if i > 0 && b.seq == bounds[i-1].seq {
			// A phase starting at 0 (or back-to-back phases) replaces
			// the boundary at the same seq.
			p.segments = p.segments[:len(p.segments)-1]
			p.phaseBySeg = p.phaseBySeg[:len(p.phaseBySeg)-1]
		}
		rate := cfg.Rate
		if b.phase >= 0 && cfg.Phases[b.phase].RateMul > 0 {
			rate *= cfg.Phases[b.phase].RateMul
		}
		p.segments = append(p.segments, segment{firstSeq: b.seq, start: offset, interval: 1 / rate})
		p.phaseBySeg = append(p.phaseBySeg, b.phase)
		nextSeq := cfg.Arrivals
		if i+1 < len(bounds) {
			nextSeq = bounds[i+1].seq
		}
		offset += time.Duration(float64(nextSeq-b.seq) / rate * float64(time.Second))
		if nextSeq >= cfg.Arrivals {
			break
		}
	}
	p.end = p.segments[len(p.segments)-1].start +
		time.Duration(float64(cfg.Arrivals-p.segments[len(p.segments)-1].firstSeq)*
			p.segments[len(p.segments)-1].interval*float64(time.Second))

	// Zipf cumulative weights over submitter keys.
	p.zipfCum = make([]float64, cfg.Submitters)
	acc := 0.0
	for k := 0; k < cfg.Submitters; k++ {
		acc += math.Pow(float64(k+1), -cfg.ZipfExponent)
		p.zipfCum[k] = acc
	}
	return p, nil
}

// segmentOf returns the segment covering seq.
func (p *plan) segmentOf(seq int) int {
	return sort.Search(len(p.segments), func(i int) bool {
		return p.segments[i].firstSeq > seq
	}) - 1
}

// offsetOf returns seq's scheduled offset on the timeline.
func (p *plan) offsetOf(seq int) time.Duration {
	s := p.segments[p.segmentOf(seq)]
	return s.start + time.Duration(float64(seq-s.firstSeq)*s.interval*float64(time.Second))
}

// phaseOf returns the phase covering seq, or nil.
func (p *plan) phaseOf(seq int) *Phase {
	if i := p.phaseBySeg[p.segmentOf(seq)]; i >= 0 {
		return &p.cfg.Phases[i]
	}
	return nil
}

// mix64 is splitmix64's finalizer: the per-request hash turning
// (seed, seq, lane) into independent uniform draws without any
// allocation or shared state.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// unit maps a hash onto [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// request materializes arrival seq's deterministic attributes.
func (p *plan) request(seq int) Request {
	h := mix64(uint64(p.cfg.Seed)<<20 ^ uint64(seq))
	u1 := unit(h)
	h = mix64(h)
	u2 := unit(h)
	h = mix64(h)
	u3 := unit(h)

	ph := p.phaseOf(seq)
	mix := p.cfg.Mix
	if ph != nil && ph.Mix != nil {
		mix = *ph.Mix
	}
	w := mix.weights()
	kind := Kind(numKinds - 1)
	target := u1 * mix.total()
	acc := 0.0
	for k, wk := range w {
		acc += wk
		if target < acc {
			kind = Kind(k)
			break
		}
	}

	// Zipf submitter draw via the cumulative table.
	zt := u2 * p.zipfCum[len(p.zipfCum)-1]
	sub := sort.SearchFloat64s(p.zipfCum, zt)
	if sub >= len(p.zipfCum) {
		sub = len(p.zipfCum) - 1
	}

	// Samples are introduced progressively (an open campaign keeps
	// seeing new files) and popularity-skewed toward earlier samples:
	// cubing the uniform concentrates reads and rescans on the old,
	// hot part of the population while uploads still extend it.
	introduced := seq*p.cfg.Samples/p.cfg.Arrivals + 1
	if introduced > p.cfg.Samples {
		introduced = p.cfg.Samples
	}
	sample := int(u3 * u3 * u3 * float64(introduced))
	if sample >= introduced {
		sample = introduced - 1
	}

	window := p.cfg.FeedWindow
	if ph != nil && ph.FeedWindowMul > 0 {
		window = time.Duration(float64(window) * ph.FeedWindowMul)
	}
	return Request{
		Seq:        seq,
		Kind:       kind,
		Submitter:  sub,
		Sample:     sample,
		FeedWindow: window,
	}
}

// atomicMax tracks a float64 maximum across goroutines.
type atomicMax struct{ bits atomic.Uint64 }

func (m *atomicMax) update(v float64) {
	for {
		old := m.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if m.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (m *atomicMax) value() float64 { return math.Float64frombits(m.bits.Load()) }

// Run executes the open-loop schedule against the target and returns
// the measured report. It returns an error only for configuration
// mistakes or context cancellation; target failures are outcomes,
// counted in the report.
func Run(ctx context.Context, cfg Config, target Target) (*Report, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ops := OpNames()
	hists := make([]*obs.Histogram, numKinds)
	okCnt := make([]*obs.Counter, numKinds)
	nfCnt := make([]*obs.Counter, numKinds)
	errCnt := make([]*obs.Counter, numKinds)
	maxes := make([]*atomicMax, numKinds)
	for k, op := range ops {
		hists[k] = reg.Histogram("loadgen_request_seconds", LatencyBuckets, "op", op)
		okCnt[k] = reg.Counter("loadgen_requests_total", "op", op, "outcome", "ok")
		nfCnt[k] = reg.Counter("loadgen_requests_total", "op", op, "outcome", "not_found")
		errCnt[k] = reg.Counter("loadgen_requests_total", "op", op, "outcome", "error")
		maxes[k] = &atomicMax{}
	}
	schedLag := reg.Histogram("loadgen_sched_lag_seconds", LatencyBuckets)
	inflight := reg.Gauge("loadgen_inflight")
	var lagMax atomicMax
	var completed, notFound, hardErrs atomic.Int64

	start := time.Now()

	// Phase boundary hooks run on the wall timeline derived from the
	// schedule. The watcher stops when the run drains (or cancels);
	// any Exit hooks not yet fired run then, so injected state (downed
	// engines) never leaks past Run.
	hookCtx, stopHooks := context.WithCancel(ctx)
	var hookWG sync.WaitGroup
	exitHooks := make([]func(), 0, len(p.cfg.Phases))
	for i := range p.cfg.Phases {
		ph := &p.cfg.Phases[i]
		from := int(ph.FromFrac * float64(cfg.Arrivals))
		to := int(ph.ToFrac * float64(cfg.Arrivals))
		if from >= to {
			continue
		}
		if ph.Exit != nil {
			exitHooks = append(exitHooks, ph.Exit)
		}
		enterAt, exitAt := p.offsetOf(from), p.end
		if to < cfg.Arrivals {
			exitAt = p.offsetOf(to)
		}
		hookWG.Add(1)
		go func(ph *Phase, enterAt, exitAt time.Duration) {
			defer hookWG.Done()
			select {
			case <-hookCtx.Done():
				return
			case <-time.After(time.Until(start.Add(enterAt))):
			}
			if ph.Enter != nil {
				ph.Enter()
			}
			select {
			case <-hookCtx.Done():
			case <-time.After(time.Until(start.Add(exitAt))):
			}
			if ph.Exit != nil {
				ph.Exit()
			}
		}(ph, enterAt, exitAt)
	}

	var wg sync.WaitGroup
	for lane := 0; lane < cfg.Clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for seq := lane; seq < cfg.Arrivals; seq += cfg.Clients {
				sched := start.Add(p.offsetOf(seq))
				if d := time.Until(sched); d > 0 {
					select {
					case <-ctx.Done():
						return
					case <-time.After(d):
					}
				} else if ctx.Err() != nil {
					return
				}
				req := p.request(seq)
				req.Scheduled = sched
				lag := time.Since(sched).Seconds()
				schedLag.Observe(lag)
				lagMax.update(lag)
				inflight.Add(1)
				err := target.Do(ctx, &req)
				inflight.Add(-1)
				lat := time.Since(sched).Seconds()
				hists[req.Kind].Observe(lat)
				maxes[req.Kind].update(lat)
				completed.Add(1)
				switch {
				case err == nil:
					okCnt[req.Kind].Inc()
				case errors.Is(err, ErrNotFound):
					nfCnt[req.Kind].Inc()
					notFound.Add(1)
				default:
					errCnt[req.Kind].Inc()
					hardErrs.Add(1)
				}
			}
		}(lane)
	}
	wg.Wait()
	wall := time.Since(start)
	stopHooks()
	hookWG.Wait()
	if ctx.Err() != nil {
		// Cancellation may have skipped Exit hooks; run them so
		// injected state is always unwound.
		for _, exit := range exitHooks {
			exit()
		}
		return nil, fmt.Errorf("loadgen: %w", ctx.Err())
	}

	rep := &Report{
		Arrivals:    cfg.Arrivals,
		Completed:   completed.Load(),
		NotFound:    notFound.Load(),
		Errors:      hardErrs.Load(),
		WallNS:      wall.Nanoseconds(),
		PerOp:       make(map[string]OpStats, numKinds),
		PerOpHist:   make(map[string]obs.HistSnapshot, numKinds),
		MaxSchedLag: lagMax.value(),
	}
	if wall > 0 {
		rep.AchievedRate = float64(rep.Completed) / wall.Seconds()
	}
	var overall obs.HistSnapshot
	var overallMax float64
	for k, op := range ops {
		snap := hists[k].Snapshot()
		rep.PerOpHist[op] = snap
		rep.PerOp[op] = OpStats{
			Count:    snap.Count,
			NotFound: nfCnt[k].Value(),
			Errors:   errCnt[k].Value(),
			P50:      snap.Quantile(0.50),
			P90:      snap.Quantile(0.90),
			P99:      snap.Quantile(0.99),
			P999:     snap.Quantile(0.999),
			Max:      maxes[k].value(),
		}
		if overall.Bounds == nil {
			overall = snap
		} else {
			overall = overall.Merge(snap)
		}
		if m := maxes[k].value(); m > overallMax {
			overallMax = m
		}
	}
	rep.OverallHist = overall
	rep.Overall = OpStats{
		Count:    overall.Count,
		NotFound: rep.NotFound,
		Errors:   rep.Errors,
		P50:      overall.Quantile(0.50),
		P90:      overall.Quantile(0.90),
		P99:      overall.Quantile(0.99),
		P999:     overall.Quantile(0.999),
		Max:      overallMax,
	}
	return rep, nil
}

// Duration returns the schedule's nominal length (last arrival's
// offset plus one interval) — what the run takes when the target
// keeps up.
func Duration(cfg Config) (time.Duration, error) {
	p, err := newPlan(cfg)
	if err != nil {
		return 0, err
	}
	return p.end, nil
}
