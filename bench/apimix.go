package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/loadgen"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// apiStack is a real-clock simulator whose whole population is
// already uploaded, so that no report or rescan can meet a 404.
type apiStack struct {
	set     *engine.Set
	svc     *vtsim.Service
	samples []*sampleset.Sample
}

func newAPIStack(seed int64, population int) (*apiStack, error) {
	// The open loop runs on wall time, so the engines' update
	// schedules span a wide window around now, as in cmd/vtsimd.
	now := time.Now()
	set, err := engine.NewSet(engine.DefaultRoster(), seed, now.AddDate(-1, 0, 0), now.AddDate(1, 0, 0))
	if err != nil {
		return nil, err
	}
	samples, err := sampleset.Generate(sampleset.Config{Seed: seed, NumSamples: population})
	if err != nil {
		return nil, err
	}
	a := &apiStack{
		set:     set,
		svc:     vtsim.NewService(set, simclock.Real{}, vtsim.WithMetrics(obs.NewRegistry())),
		samples: samples,
	}
	for _, s := range samples {
		if _, err := a.svc.Upload(uploadOf(s)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func uploadOf(s *sampleset.Sample) vtsim.UploadRequest {
	return vtsim.UploadRequest{
		SHA256: s.SHA256, FileType: s.FileType, Size: s.Size,
		Malicious: s.Malicious, Detectability: s.Detectability,
	}
}

const (
	feedWindow = 2 * time.Second
	feedLimit  = 200
)

// mixBlock is how many consecutive closed-loop requests hold the
// default mix exactly.
const mixBlock = 100

// apiRequest is closed-loop request i: its kind and its sample, both
// functions of (seed, i) alone. Every block of mixBlock requests holds
// the default mix exactly (50 uploads, 32 reports, 13 rescans, 5 feed
// pages) in an order the seed fixes: a feed page costs fifty times an
// upload, so a mix drawn at random would make the rate of a short
// stretch depend on how many pages fell into it.
func apiRequest(seed int64, i, population int) (loadgen.Kind, int) {
	x := splitmix(uint64(seed)<<20 ^ uint64(i))
	block := splitmix(uint64(seed)<<20 ^ uint64(i/mixBlock) ^ 1<<62)
	// pos -> (pos*a + b) mod mixBlock is a permutation when a is odd
	// and not a multiple of 5.
	units := [...]int{1, 3, 7, 9, 11, 13, 17, 19, 21, 23, 27, 29, 31, 33, 37, 39}
	a, b := units[block%uint64(len(units))], int(block>>8%mixBlock)
	j := (i%mixBlock*a + b) % mixBlock
	m := loadgen.DefaultMix
	kind := loadgen.KindFeed
	switch t := (float64(j) + 0.5) / mixBlock * (m.Upload + m.Report + m.Rescan + m.Feed); {
	case t < m.Upload:
		kind = loadgen.KindUpload
	case t < m.Upload+m.Report:
		kind = loadgen.KindReport
	case t < m.Upload+m.Report+m.Rescan:
		kind = loadgen.KindRescan
	}
	return kind, int(x % uint64(population))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// apiRun is one API region: server, client and what the lanes record.
type apiRun struct {
	e      *env
	client *vtclient.Client
	mu     sync.Mutex
	callMS [4][]float64 // client call time by loadgen.Kind, lag excluded
	failed atomic.Int64
}

// do issues one request and records it under the root span of its
// arrival. due is the scheduled instant (the start, in a closed loop).
func (a *apiRun) do(ctx context.Context, seq int, kind loadgen.Kind, sample int, due time.Time) error {
	tr := a.e.tr
	op := kind.String()
	root := tr.startAt("bench.api_request", 0, seq, due)
	start := time.Now()
	tr.interval("loadgen.lag", root, seq, due, start)
	id := tr.start("vtclient.call."+op, root, seq)
	ctx = withSpan(ctx, id, seq, op)

	s := a.e.api.samples[sample]
	var err error
	switch kind {
	case loadgen.KindUpload:
		_, err = a.client.Upload(ctx, vtapi.UploadDescriptor{
			SHA256: s.SHA256, FileType: s.FileType, Size: s.Size,
			Malicious: s.Malicious, Detectability: s.Detectability,
		})
	case loadgen.KindReport:
		_, err = a.client.Report(ctx, s.SHA256)
	case loadgen.KindRescan:
		_, err = a.client.Rescan(ctx, s.SHA256)
	case loadgen.KindFeed:
		// The wire carries Unix seconds: whole seconds, to after from.
		to := due.Truncate(time.Second).Add(time.Second)
		_, err = a.client.FeedBetweenLimit(ctx, to.Add(-feedWindow), to, feedLimit)
	}
	tr.end(id)
	tr.end(root)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	a.mu.Lock()
	a.callMS[kind] = append(a.callMS[kind], ms)
	a.mu.Unlock()
	if err != nil {
		a.failed.Add(1)
	}
	return err
}

// regionAPI is the service users' side. It first rescans feedLimit
// samples in process, so that the feed's two-second window is full and
// every feed page is a full one however long ago the last region ran,
// and opens the connections with one untimed block of requests. Phase
// A (30 % of the budget, and only under api-mix itself) is a closed
// loop over all lanes, in blocks of mixBlock requests that each hold
// the exact mix, and gives capacity: requests over the blocks' time.
// Phase B (the rest) offers the default mix at a fixed open-loop rate
// well below that capacity and gives latency, timed from each
// arrival's scheduled instant and kept exactly.
func (e *env) regionAPI(budget float64) error {
	reg := obs.NewRegistry()
	var h http.Handler = vtapi.NewServer(e.api.svc, nil, vtapi.WithMetrics(reg))
	var sh *spanHandler
	if e.tr != nil {
		sh = &spanHandler{tr: e.tr, name: "vtapi.serve", next: h}
		h = sh
	}
	url, stop, err := serve(h)
	if err != nil {
		return err
	}
	defer stop()
	hc, closeIdle := e.httpClient()
	defer closeIdle()
	for _, smp := range e.api.samples[:min(feedLimit, len(e.api.samples))] {
		if _, err := e.api.svc.Rescan(smp.SHA256); err != nil {
			return err
		}
	}
	a := &apiRun{e: e, client: vtclient.New(url, vtclient.WithMetrics(reg),
		vtclient.WithHTTPClient(hc), vtclient.WithBackoff(time.Millisecond))}
	ctx := context.Background()
	pop := len(e.api.samples)

	// block runs closed-loop requests [first, first+mixBlock) over all
	// lanes and returns how long they took together.
	block := func(first int) float64 {
		var next atomic.Int64
		next.Store(int64(first))
		var wg sync.WaitGroup
		start := time.Now()
		for lane := 0; lane < e.lanes; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= first+mixBlock {
						return
					}
					kind, sample := apiRequest(e.seed, i, pop)
					a.do(ctx, i, kind, sample, time.Now()) // failures are counted in a.failed
				}
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds()
	}
	block(0) // untimed: opens the connections
	closed := mixBlock
	if !e.probe {
		busy := 0.0
		for busy < 0.30*budget {
			busy += block(closed)
			closed += mixBlock
		}
		e.res.sample("api_req_per_s", float64(closed-mixBlock)/busy)
		budget *= 0.70
	}

	// Phase B: open loop.
	arrivals := int(e.sz.APIRate * budget)
	if arrivals < 20 {
		arrivals = 20
	}
	latMS := make([]float64, arrivals)
	lagMS := make([]float64, arrivals)
	rep, err := loadgen.Run(ctx, loadgen.Config{
		Rate:         e.sz.APIRate,
		Clients:      e.lanes,
		Arrivals:     arrivals,
		Seed:         e.seed,
		Submitters:   e.sz.Submitters,
		ZipfExponent: 1.1,
		Samples:      pop,
		FeedWindow:   feedWindow,
		Metrics:      reg,
	}, loadgen.TargetFunc(func(ctx context.Context, req *loadgen.Request) error {
		lagMS[req.Seq] = float64(time.Since(req.Scheduled).Nanoseconds()) / 1e6
		err := a.do(ctx, closed+req.Seq, req.Kind, req.Sample, req.Scheduled)
		latMS[req.Seq] = float64(time.Since(req.Scheduled).Nanoseconds()) / 1e6
		return err
	}))
	if err != nil {
		return err
	}

	total := int64(closed + arrivals)
	failed := a.failed.Load()
	e.res.ops(total, failed)
	if failed > 0 || rep.Errors > 0 || rep.NotFound > 0 {
		e.res.problem("api: %d requests failed (%d not found and %d errors in the open loop)", failed, rep.NotFound, rep.Errors)
	}
	if rep.Completed != int64(arrivals) {
		e.res.ops(0, 1)
		e.res.problem("api: open loop completed %d of %d arrivals", rep.Completed, arrivals)
	}
	e.checkWire(reg, "api")
	lag99 := percentile(lagMS, 0.99)
	e.res.late("the API open loop", lag99)

	e.sampleChunks("api_p50_ms", latMS, 0.50)
	e.res.sample("api_p99_ms", percentile(latMS, 0.99))
	e.res.sample("loadgen.sched_lag_ms_p99", lag99)
	e.res.sample("loadgen.sched_lag_ms_max", percentile(lagMS, 1))
	for k, op := range loadgen.OpNames() {
		if len(a.callMS[k]) > 0 {
			e.res.sample("vtclient.call_ms_p50."+op, percentile(a.callMS[k], 0.50))
		}
	}
	if sh != nil {
		e.res.add("vtapi.resp_bytes", float64(sh.respBytes()))
	}
	return nil
}

// layerProbes calls the layers under vtapi directly, on the API
// region's own service and population, to split vtapi.serve_s into
// simulator, engine and codec shares.
func (e *env) layerProbes() error {
	const n = 1000
	a := e.api
	probe := func(name string, reps int, f func(i int) error) error {
		us := make([]float64, reps)
		for i := range us {
			t0 := time.Now()
			if err := f(i); err != nil {
				return fmt.Errorf("probe %s: %w", name, err)
			}
			us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		e.res.sample(name, median(us))
		return nil
	}
	sample := func(i int) *sampleset.Sample { return a.samples[i%len(a.samples)] }
	var env report.Envelope
	var wire []byte
	steps := []struct {
		name string
		reps int
		f    func(i int) error
	}{
		{"vtsim.upload_us", n, func(i int) error { _, err := a.svc.Upload(uploadOf(sample(i))); return err }},
		{"vtsim.rescan_us", n, func(i int) error { _, err := a.svc.Rescan(sample(i).SHA256); return err }},
		{"vtsim.report_us", n, func(i int) error {
			var err error
			env, err = a.svc.Report(sample(i).SHA256)
			return err
		}},
		{"vtsim.feed_limit_us", n / 10, func(int) error {
			now := time.Now()
			a.svc.FeedBetweenLimit(now.Add(-feedWindow), now.Add(time.Second), feedLimit)
			return nil
		}},
		{"engine.scan_us", n, func(i int) error { a.set.Scan(sample(i).Target(), time.Now()); return nil }},
		{"report.encode_us", n, func(int) error { wire = env.AppendJSON(wire[:0]); return nil }},
		{"report.decode_us", n, func(int) error { var out report.Envelope; return out.UnmarshalJSON(wire) }},
	}
	for _, s := range steps {
		if err := probe(s.name, s.reps, s.f); err != nil {
			return err
		}
	}
	return nil
}
