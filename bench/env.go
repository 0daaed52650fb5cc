package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtsim"
)

// sizes are the workload shapes. fullSizes is a quarter of the sizing
// the issue measured (20 000 samples, 6 000 for collect-http), scaled
// so that 114 runs with three set-ups each fit the driver's hour; the
// shapes and ratios are the issue's.
type sizes struct {
	Samples        int           // campaign behind ingest, replicate, query, live
	CollectSamples int           // campaign behind collect-http
	CollectWindow  time.Duration // poll width of the checkpointed collector: 24 h, 426 polls
	Population     int           // real-clock population behind the API region
	HotSet         int           // hot Get keys; fits the store's default 4 096-entry cache
	IngestWindow   time.Duration // poll width of the uncheckpointed ingest
	APIRate        float64       // open-loop arrivals per second
	LiveGetRate    float64       // open-loop Gets per second
	LivePace       time.Duration // the live writer releases one window per pace
	Submitters     int
	Setups         int // set-ups per untraced run, each one sample of setup_s
	Cycles         int // times a run goes round its regions
	OverheadTries  int // pairs of passes a traced run may take to meet maxOverhead
}

var fullSizes = sizes{
	Samples:        5000,
	CollectSamples: 500,
	CollectWindow:  24 * time.Hour,
	Population:     5000,
	HotSet:         1024,
	IngestWindow:   6 * time.Hour,
	APIRate:        300,
	LiveGetRate:    400,
	LivePace:       10 * time.Millisecond,
	Submitters:     1500,
	Setups:         3,
	Cycles:         3,
	OverheadTries:  3,
}

// results collects what a run reports: per-metric samples, summed
// per-layer counts, operations attempted and failed, and every output
// check that did not hold.
type results struct {
	mu        sync.Mutex
	samples   map[string][]float64 // one value per slice of work: a repetition, or a chunk of operations
	sums      map[string]float64   // per-layer counts and times, summed over the pass
	attempted int64
	failed    int64
	problems  []string
	lag       map[string]float64 // worst p99 generator lag per open loop, ms
}

func newResults() *results {
	return &results{
		samples: make(map[string][]float64),
		sums:    make(map[string]float64),
		lag:     make(map[string]float64),
	}
}

// sample records one slice's value of a metric.
func (r *results) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// add accumulates a per-layer count or time.
func (r *results) add(name string, v float64) {
	r.mu.Lock()
	r.sums[name] += v
	r.mu.Unlock()
}

// value is what a run reports for a metric and how many samples it
// summarises. End-to-end metrics (better != "") report steady(); the
// rest report a sum where they were summed and a median otherwise.
func (r *results) value(name, better string) (float64, int) {
	if v, ok := r.sums[name]; ok {
		return v, 1
	}
	xs := r.samples[name]
	if better != "" {
		return steady(xs, better), len(xs)
	}
	return median(xs), len(xs)
}

// ops counts operations whose outcome was checked.
func (r *results) ops(attempted, failed int64) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// problem records a failed output check; any makes the run incorrect.
func (r *results) problem(format string, args ...any) {
	r.mu.Lock()
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

// maxLagMS is how late an open loop's generator may run at p99 before
// the run is printed as suspect.
const maxLagMS = 5

// late notes how late an open loop's generator ran at p99, keeping the
// worst per loop. Past maxLagMS the run's numbers stand, but they are
// printed with a warning.
func (r *results) late(loop string, lagMS float64) {
	r.mu.Lock()
	if lagMS > r.lag[loop] {
		r.lag[loop] = lagMS
	}
	r.mu.Unlock()
}

// suspects lists the loops that ran late.
func (r *results) suspects() []string {
	var out []string
	for loop, ms := range r.lag {
		if ms > maxLagMS {
			out = append(out, fmt.Sprintf("%s ran %.1f ms late at p99", loop, ms))
		}
	}
	sort.Strings(out)
	return out
}

// campaign is one replayed collection campaign: the simulator holding
// every report, and what the collector must find in it.
type campaign struct {
	set     *engine.Set
	svc     *vtsim.Service
	samples []*sampleset.Sample
	reports int
}

func newCampaign(seed int64, samples int) (*campaign, error) {
	set, err := engine.NewSet(engine.DefaultRoster(), seed,
		simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		return nil, err
	}
	pop, err := sampleset.Generate(sampleset.Config{Seed: seed, NumSamples: samples})
	if err != nil {
		return nil, err
	}
	clock := simclock.NewSim(simclock.CollectionStart)
	svc := vtsim.NewService(set, clock, vtsim.WithMetrics(obs.NewRegistry()))
	if err := vtsim.RunWorkload(svc, clock, pop); err != nil {
		return nil, err
	}
	return &campaign{set: set, svc: svc, samples: pop, reports: svc.NumReports()}, nil
}

// source serves the campaign's feed in process.
func (c *campaign) source() feed.Source {
	return feed.SourceFunc(func(_ context.Context, from, to time.Time) ([]report.Envelope, error) {
		return c.svc.FeedBetween(from, to), nil
	})
}

// env is one run's state: sizes, inputs made in set-up, and results.
type env struct {
	sz    sizes
	seed  int64
	lanes int
	work  string  // scratch directory, removed when the run ends
	tr    *tracer // nil on the untraced pass
	probe bool    // running a region that is not the workload's own
	check bool    // last cycle: reopen, verify and compare what the regions wrote
	res   *results

	// owned names the end-to-end metrics the workload's own regions
	// measure; samples of them from any other region are dropped.
	owned map[string]bool

	camp      *campaign // Samples-sized
	small     *campaign // CollectSamples-sized; collect-http only
	baseDir   string    // store of camp, built by one uncheckpointed ingest
	base      ingestRep // that build, which doubles as an ingest measurement
	api       *apiStack
	collected store.PartitionStats // what one collect-http repetition stores
	truth     *truth               // expected query answers, derived once per set-up
	coldNext  int                  // next cold Get key, so that no region call repeats one
	dirSeq    int
}

// sample records one slice's value of an end-to-end metric, unless a
// region of the workload's own measures that metric and this is not it.
func (e *env) sample(name string, v float64) {
	if e.probe && e.owned[name] {
		return
	}
	e.res.sample(name, v)
}

// chunk is how many consecutive operations share one latency sample.
const chunk = 50

// sampleChunks cuts per-operation latencies, in the order they were
// issued, into chunks and records each chunk's p-quantile. A trailing
// part chunk is dropped unless it is all there is.
func (e *env) sampleChunks(name string, lat []float64, p float64) {
	if len(lat) < chunk && len(lat) > 0 {
		e.sample(name, percentile(lat, p))
	}
	for i := 0; i+chunk <= len(lat); i += chunk {
		e.sample(name, percentile(lat[i:i+chunk], p))
	}
}

// dir returns a fresh path under the scratch directory.
func (e *env) dir(kind string) string {
	e.dirSeq++
	return filepath.Join(e.work, fmt.Sprintf("%s-%d", kind, e.dirSeq))
}

// setup makes every input the regions need. It is what setup_s times:
// campaign generation and replay, the base store build, and the API
// population upload.
func (e *env) setup(w workload) error {
	var err error
	if e.camp, err = newCampaign(e.seed, e.sz.Samples); err != nil {
		return err
	}
	e.baseDir = e.dir("base")
	if e.base, err = e.ingestOnce(e.camp, e.baseDir, nil); err != nil {
		return err
	}
	if w.native[0].name == regCollect.name {
		if e.small, err = newCampaign(e.seed, e.sz.CollectSamples); err != nil {
			return err
		}
	}
	e.api, err = newAPIStack(e.seed, e.sz.Population)
	return err
}

// teardown releases what setup made, so it can run again.
func (e *env) teardown() {
	if e.baseDir != "" {
		os.RemoveAll(e.baseDir)
	}
	e.camp, e.small, e.api, e.truth, e.baseDir = nil, nil, nil, nil, ""
}

// serve binds an OS-assigned loopback port and serves h until the
// returned stop function, which waits for the server to finish.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() {
		srv.Close()
		<-done
	}, nil
}

// httpClient makes a client with at most lanes connections, wrapped
// to record spans when tracing.
func (e *env) httpClient() (*http.Client, func()) {
	t := &http.Transport{
		MaxIdleConns:        e.lanes,
		MaxIdleConnsPerHost: e.lanes,
		MaxConnsPerHost:     e.lanes,
		IdleConnTimeout:     90 * time.Second,
	}
	var rt http.RoundTripper = t
	if e.tr != nil {
		rt = spanTransport{tr: e.tr, next: t}
	}
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}, t.CloseIdleConnections
}

// repeat runs unit until the budget is spent: at least min times, and
// again only while the next repetition is expected to end in time.
// A repetition of 50 ms or more starts from a collected heap, so that
// how many GC cycles fall inside it depends on what it allocates and
// not on what ran before it.
func repeat(budget float64, min int, unit func() error) error {
	start := time.Now()
	last := 1.0
	for i := 0; ; i++ {
		if last >= 0.05 {
			runtime.GC()
		}
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		last = time.Since(t0).Seconds()
		if i+1 >= min && time.Since(start).Seconds()+last > budget {
			return nil
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// memDelta is what a region allocated, for the go.* layer metrics.
type memDelta struct {
	before runtime.MemStats
}

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(res *results, ops int64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.add("go.alloc_mb", float64(after.TotalAlloc-m.before.TotalAlloc)/1e6)
	if ops > 0 {
		res.add("go.allocs_per_op", float64(after.Mallocs-m.before.Mallocs)/float64(ops))
	}
	res.add("go.gc_pause_ms", float64(after.PauseTotalNs-m.before.PauseTotalNs)/1e6)
}

// verifyStore reopens a store and checks that every acknowledged row
// survived Close (or Sync) and reopen.
func verifyStore(dir string, wantRows, workers int) error {
	st, err := store.Open(dir, store.WithMetrics(obs.NewRegistry()))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	rows, err := st.VerifyWorkers(workers)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if rows != wantRows {
		return fmt.Errorf("verify read %d rows after reopen, %d were acknowledged", rows, wantRows)
	}
	return nil
}

// dirHashes maps each file of a store directory to its SHA-256,
// leaving out the collector's and follower's cursor files, which
// belong to the process and not to the data.
func dirHashes(dir string) (map[string]string, error) {
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.Contains(d.Name(), ".cursor") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = hex.EncodeToString(h.Sum(nil))
		return nil
	})
	return out, err
}

// histSum reads a store histogram's running sum of seconds.
func histSum(reg *obs.Registry, name string) float64 {
	return reg.Histogram(name, obs.DefBuckets).Snapshot().Sum
}
