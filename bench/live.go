package main

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
)

// liveRun is the state the paced writer and the fixed-rate reader
// share: which windows were released when, and which samples are
// committed, so the reader only asks for what a Get must find.
type liveRun struct {
	e        *env
	st       *store.Store
	t0       time.Time
	interval time.Duration
	pace     time.Duration

	// Writer only; the collector runs with one worker, so fetch and
	// commit of a window alternate on one goroutine.
	release  []time.Time
	roots    []int
	next     int
	commitMS []float64 // PutBatch return minus scheduled release
	putMS    []float64 // PutBatch alone

	mu        sync.Mutex
	committed []string       // SHAs in commit order, resubmissions repeated
	rows      map[string]int // committed rows per sample
}

// FeedBetween releases window i at t0 + i*pace, however long the
// previous commit took: the writer is an open loop.
func (l *liveRun) FeedBetween(_ context.Context, from, to time.Time) ([]report.Envelope, error) {
	i := int(from.Sub(simclock.CollectionStart) / l.interval)
	due := l.t0.Add(time.Duration(i) * l.pace)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	tr := l.e.tr
	root := tr.startAt("bench.live_commit", 0, i, due)
	start := time.Now()
	tr.interval("live.lag", root, i, due, start)
	id := tr.start("vtsim.feed_between", root, i)
	envs := l.e.camp.svc.FeedBetween(from, to)
	tr.end(id)
	l.release = append(l.release, due)
	l.roots = append(l.roots, root)
	return envs, nil
}

func (l *liveRun) Put(env report.Envelope) error {
	return l.PutBatch([]report.Envelope{env})
}

// PutBatch commits window l.next and publishes its samples to the
// reader only after the store acknowledged them.
func (l *liveRun) PutBatch(envs []report.Envelope) error {
	i := l.next
	l.next++
	tr := l.e.tr
	id := tr.start("store.put_batch", l.roots[i], i)
	t0 := time.Now()
	err := l.st.PutBatch(envs)
	done := time.Now()
	tr.end(id)
	tr.end(l.roots[i])
	l.putMS = append(l.putMS, float64(done.Sub(t0).Nanoseconds())/1e6)
	l.commitMS = append(l.commitMS, float64(done.Sub(l.release[i]).Nanoseconds())/1e6)
	l.mu.Lock()
	for k := range envs {
		sha := envs[k].Meta.SHA256
		l.committed = append(l.committed, sha)
		l.rows[sha]++
	}
	l.mu.Unlock()
	return err
}

// pick draws the reader's next key: half from the last 512 committed
// SHAs, half uniform over everything committed. want is how many rows
// a Get issued now must return at least.
func (l *liveRun) pick(rng *rand.Rand) (sha string, want int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.committed)
	if n == 0 {
		return "", 0, false
	}
	lo := 0
	if rng.Intn(2) == 0 && n > 512 {
		lo = n - 512
	}
	sha = l.committed[lo+rng.Intn(n-lo)]
	return sha, l.rows[sha], true
}

// regionLive runs reads beside writes on one store. The writer
// releases one window every LivePace and the whole campaign in the
// budget, so the window width follows from the budget; the reader
// Gets at a fixed rate and times each from its scheduled instant.
func (e *env) regionLive(budget float64) error {
	c := e.camp
	windows := int(budget / e.sz.LivePace.Seconds())
	if windows < 8 {
		windows = 8
	}
	span := simclock.CollectionEnd.Sub(simclock.CollectionStart)
	interval := (span/time.Duration(windows) + time.Second - 1).Truncate(time.Second)

	dir := e.dir("live")
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.WithMetrics(reg))
	if err != nil {
		return err
	}
	l := &liveRun{
		e: e, st: st, interval: interval, pace: e.sz.LivePace,
		rows: make(map[string]int),
		t0:   time.Now().Add(5 * time.Millisecond),
	}
	coll := feed.NewCollector(l, l)
	coll.Interval = interval
	coll.Workers = 1
	coll.Metrics = reg

	// Reader lane.
	var (
		getUS, lagMS []float64
		failed       int64
		stopReader   = make(chan struct{})
		readerDone   = make(chan struct{})
	)
	go func() {
		defer close(readerDone)
		rng := rand.New(rand.NewSource(e.seed))
		gap := time.Duration(float64(time.Second) / e.sz.LiveGetRate)
		for k := 0; ; k++ {
			due := l.t0.Add(time.Duration(k) * gap)
			select {
			case <-stopReader:
				return
			case <-time.After(time.Until(due)):
			}
			sha, want, ok := l.pick(rng)
			if !ok {
				continue
			}
			root := e.tr.startAt("bench.live_get", 0, k, due)
			start := time.Now()
			e.tr.interval("live.lag", root, k, due, start)
			id := e.tr.start("store.get", root, k)
			h, err := st.Get(sha)
			e.tr.end(id)
			e.tr.end(root)
			getUS = append(getUS, float64(time.Since(due).Nanoseconds())/1e3)
			lagMS = append(lagMS, float64(start.Sub(due).Nanoseconds())/1e6)
			if err != nil || len(h.Reports) < want {
				failed++
			}
		}
	}()

	fs, err := coll.Run(context.Background(), simclock.CollectionStart, simclock.CollectionEnd)
	close(stopReader)
	<-readerDone
	id := e.tr.start("store.close", 0, 0)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	e.tr.end(id)
	if err != nil {
		return err
	}

	e.res.ops(int64(len(getUS))+2, failed)
	if failed > 0 {
		e.res.problem("live: %d of %d Gets missed rows committed before they were issued", failed, len(getUS))
	}
	if fs.Envelopes != c.reports {
		e.res.ops(0, 1)
		e.res.problem("live: collected %d envelopes, the service generated %d", fs.Envelopes, c.reports)
	}
	if e.check {
		if err := verifyStore(dir, c.reports, e.lanes); err != nil {
			e.res.ops(0, 1)
			e.res.problem("live: %v", err)
		}
	}
	lag99 := percentile(lagMS, 0.99)
	e.res.late("the live reader", lag99)

	e.sampleChunks("get_p50_us", getUS, 0.50)
	e.sampleChunks("commit_p50_ms", l.commitMS, 0.50)
	e.res.sample("get_p90_us", percentile(getUS, 0.90))
	e.res.sample("get_p99_us", percentile(getUS, 0.99))
	e.res.sample("commit_p99_ms", percentile(l.commitMS, 0.99))
	e.res.sample("store.get_live_us_p99", percentile(getUS, 0.99))
	e.res.sample("store.put_batch_ms_p99", percentile(l.putMS, 0.99))
	e.res.sample("live.reader_lag_ms_p99", lag99)
	// Blocks the readers made the store cut early: what this run cut
	// beyond what the writer alone cuts for the same campaign.
	e.res.sample("store.read_cuts", float64(reg.SumCounters("store_blocks_cut_total")-e.base.blocksCut))
	if gets := reg.SumCounters("store_gets_total"); gets > 0 {
		e.res.sample("store.cache_hit_ratio", float64(reg.SumCounters("store_cache_hits_total"))/float64(gets))
	}
	e.res.add("store.cache_evictions", float64(reg.SumCounters("store_cache_evictions_total")))
	return nil
}
