package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
	vtsync "vtdynamics/internal/sync"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
)

// ingestRep is one campaign collected into one fresh store.
type ingestRep struct {
	wall      float64 // collector start to Close return, seconds
	envelopes int
	stats     store.PartitionStats
	blocksCut int64
}

func (r ingestRep) rate() float64 { return float64(r.envelopes) / r.wall }

func (r ingestRep) bytesPerReport() float64 {
	return float64(r.stats.StoredBytes) / float64(r.stats.Reports)
}

// collectRun is what differs between the two ways into the store.
type collectRun struct {
	root     string // bench.* span that covers the timed region
	source   feed.Source
	srcSpan  string
	op       string // API operation of a fetch over HTTP
	interval time.Duration
	cursor   func(dir string) feed.Cursor // nil: no checkpoints, Close only
}

// collectInto runs one collector over the whole campaign window into a
// fresh store at dir and closes it: the timed region of both ingest
// workloads. With a tracer it wraps the source, the sink and the
// cursor, the only places the collector calls out.
func (e *env) collectInto(c *campaign, dir string, cr collectRun, tr *tracer) (ingestRep, error) {
	reg := obs.NewRegistry()
	st, err := store.Open(dir, store.WithMetrics(reg))
	if err != nil {
		return ingestRep{}, err
	}
	var cursor feed.Cursor
	if cr.cursor != nil {
		cursor = cr.cursor(dir)
	}
	src, sink := cr.source, feed.Sink(st)
	root := tr.start(cr.root, 0, 0)
	run := tr.start("feed.run", root, 0)
	if tr != nil {
		src = &spanSource{tr: tr, name: cr.srcSpan, op: cr.op, parent: run, next: src}
		sink = &spanSink{tr: tr, parent: run, next: st}
		if cursor != nil {
			cursor = &spanCursor{tr: tr, parent: run, next: cursor}
		}
	}
	coll := feed.NewCollector(src, sink)
	coll.Interval = cr.interval
	coll.Workers = e.lanes
	coll.Metrics = reg

	ctx := context.Background()
	start := time.Now()
	var fs feed.Stats
	if cursor != nil {
		fs, err = coll.RunResumable(ctx, simclock.CollectionStart, simclock.CollectionEnd, cursor)
	} else {
		fs, err = coll.Run(ctx, simclock.CollectionStart, simclock.CollectionEnd)
	}
	tr.end(run)
	if err != nil {
		st.Close()
		return ingestRep{}, err
	}
	cl := tr.start("store.close", root, 0)
	err = st.Close()
	tr.end(cl)
	wall := time.Since(start).Seconds()
	tr.end(root)
	if err != nil {
		return ingestRep{}, err
	}

	e.res.ops(1, 0)
	if fs.Envelopes != c.reports {
		e.res.ops(0, 1)
		e.res.problem("%s: collected %d envelopes, the service generated %d", cr.root, fs.Envelopes, c.reports)
	}
	if tr != nil {
		e.res.add("feed.polls", float64(fs.Polls))
		e.res.add("feed.envelopes", float64(fs.Envelopes))
		if cr.srcSpan == "vtsim.feed_between" {
			e.res.add("vtsim.feed_envelopes", float64(fs.Envelopes))
		}
		e.res.add("store.block_encode_s", histSum(reg, "store_block_encode_seconds"))
		e.res.add("store.block_compress_s", histSum(reg, "store_block_compress_seconds"))
		e.res.add("store.blocks_cut", float64(reg.SumCounters("store_blocks_cut_total")))
		e.res.add("store.raw_bytes", float64(reg.SumCounters("store_raw_bytes_total")))
		e.res.add("store.stored_bytes", float64(reg.SumCounters("store_stored_bytes_total")))
	}
	return ingestRep{
		wall:      wall,
		envelopes: fs.Envelopes,
		stats:     st.TotalStats(),
		blocksCut: reg.SumCounters("store_blocks_cut_total"),
	}, nil
}

// ingestOnce is the uncheckpointed path: in-process feed, 6 h polls,
// PutBatch, Close. Set-up builds the base store with it.
func (e *env) ingestOnce(c *campaign, dir string, tr *tracer) (ingestRep, error) {
	return e.collectInto(c, dir, collectRun{
		root:     "bench.ingest",
		source:   c.source(),
		srcSpan:  "vtsim.feed_between",
		interval: e.sz.IngestWindow,
	}, tr)
}

// collectReps repeats one collection until the budget is spent,
// keeping only the last store, and samples each repetition's rate.
// Every repetition must store the same bytes as want (when set): the
// block cuts are a function of the input alone.
func (e *env) collectReps(budget float64, c *campaign, kind string, want *store.PartitionStats, once func(dir string) (ingestRep, error)) error {
	var lastDir string
	err := repeat(budget, 1, func() error {
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = e.dir(kind)
		rep, err := once(lastDir)
		if err != nil {
			return err
		}
		if want.Reports != 0 && rep.stats != *want {
			e.res.problem("%s: stored %+v, another repetition %+v", kind, rep.stats, *want)
		}
		*want = rep.stats
		e.sample("ingest_reports_per_s", rep.rate())
		e.sample("store_bytes_per_report", rep.bytesPerReport())
		return nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(lastDir)
	if !e.check {
		return nil
	}
	e.res.ops(1, 0)
	if err := verifyStore(lastDir, c.reports, e.lanes); err != nil {
		e.res.ops(0, 1)
		e.res.problem("%s: %v", kind, err)
	}
	return nil
}

// regionIngest is ingest-direct phase A.
func (e *env) regionIngest(budget float64) error {
	return e.collectReps(budget, e.camp, "ingest", &e.base.stats, func(dir string) (ingestRep, error) {
		return e.ingestOnce(e.camp, dir, e.tr)
	})
}

const premiumKey = "bench-premium"

// regionCollect is cmd/vtcollect's path: vtapi with a premium key on
// loopback, vtclient.FeedBetween, RunResumable with a file cursor, so
// every poll ends in store.Sync and a cursor save.
func (e *env) regionCollect(budget float64) error {
	c := e.small
	reg := obs.NewRegistry()
	var h http.Handler = vtapi.NewServer(c.svc, nil, vtapi.WithMetrics(reg),
		vtapi.WithAuth(simclock.Real{}, map[string]vtapi.Tier{premiumKey: vtapi.PremiumTier}))
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
	client := vtclient.New(url, vtclient.WithAPIKey(premiumKey),
		vtclient.WithMetrics(reg), vtclient.WithHTTPClient(hc))

	err = e.collectReps(budget, c, "collect", &e.collected, func(dir string) (ingestRep, error) {
		return e.collectInto(c, dir, collectRun{
			root:     "bench.collect",
			source:   feed.SourceFunc(client.FeedBetween),
			srcSpan:  "vtclient.call.feed",
			op:       "feed",
			interval: e.sz.CollectWindow,
			cursor: func(dir string) feed.Cursor {
				return &feed.FileCursor{Path: filepath.Join(dir, "collect.cursor")}
			},
		}, e.tr)
	})
	if err != nil {
		return err
	}
	e.checkWire(reg, "collect")
	if sh != nil {
		e.res.add("vtapi.resp_bytes", float64(sh.respBytes()))
	}
	return nil
}

// checkWire holds the client and the server to the same count: every
// attempt the client made is a request the server counted.
func (e *env) checkWire(reg *obs.Registry, where string) {
	attempts := reg.SumCounters("client_attempts_total")
	served := reg.SumCounters("api_requests_total")
	e.res.ops(1, 0)
	if attempts != served {
		e.res.ops(0, 1)
		e.res.problem("%s: client made %d attempts, server counted %d requests", where, attempts, served)
	}
	if e.tr != nil {
		e.res.add("vtapi.requests", float64(served))
		e.res.add("vtclient.attempts", float64(attempts))
		e.res.add("vtclient.retries", float64(reg.SumCounters("client_retries_total")))
	}
}

// regionReplicate is ingest-direct phase B: a leader over the base
// store on loopback, and a follower catching up into an empty
// replica. It is the only place store.ReadBlock, store.ApplyBlocks
// and the sync wire format run.
func (e *env) regionReplicate(budget float64) error {
	reg := obs.NewRegistry()
	leaderStore, err := store.Open(e.baseDir, store.WithMetrics(reg))
	if err != nil {
		return err
	}
	defer leaderStore.Close()
	var h http.Handler = vtsync.NewLeader(leaderStore, reg)
	if e.tr != nil {
		h = &spanHandler{tr: e.tr, name: "sync.leader_serve", next: h}
	}
	url, stop, err := serve(h)
	if err != nil {
		return err
	}
	defer stop()
	hc, closeIdle := e.httpClient()
	defer closeIdle()

	var lastDir string
	reps := 0
	err = repeat(budget, 1, func() error {
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		lastDir = e.dir("replica")
		reps++
		replica, err := store.Open(lastDir, store.WithMetrics(reg))
		if err != nil {
			return err
		}
		f := vtsync.NewFollower(replica, url, reg)
		f.Client = hc
		f.CursorPath = filepath.Join(lastDir, "sync.cursor")
		root := e.tr.start("bench.replicate", 0, reps)
		id := e.tr.start("sync.catchup", root, reps)
		start := time.Now()
		st, err := f.CatchUp(withSpan(context.Background(), id, reps, ""))
		wall := time.Since(start).Seconds()
		e.tr.end(id)
		e.tr.end(root)
		if cerr := replica.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("catch-up: %w", err)
		}
		e.sample("replicate_mb_per_s", float64(st.BytesApplied)/1e6/wall)
		if e.tr != nil {
			e.res.add("sync.blocks_applied", float64(st.BlocksApplied))
			e.res.add("sync.bytes_applied", float64(st.BytesApplied))
			e.res.add("sync.rounds", float64(st.Rounds))
			e.res.add("sync.retries", float64(st.Retries))
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer os.RemoveAll(lastDir)
	if !e.check {
		return nil
	}
	e.res.ops(1, 0)
	if err := sameStore(e.baseDir, lastDir); err != nil {
		e.res.ops(0, 1)
		e.res.problem("replicate: %v", err)
	}
	return nil
}

// sameStore checks that a replica's files are SHA-256-identical to
// the leader's.
func sameStore(leaderDir, replicaDir string) error {
	leader, err := dirHashes(leaderDir)
	if err != nil {
		return err
	}
	replica, err := dirHashes(replicaDir)
	if err != nil {
		return err
	}
	for name, sum := range leader {
		if replica[name] != sum {
			return fmt.Errorf("replica file %s differs from the leader's", name)
		}
	}
	if len(replica) != len(leader) {
		return fmt.Errorf("replica holds %d files, leader %d", len(replica), len(leader))
	}
	return nil
}
