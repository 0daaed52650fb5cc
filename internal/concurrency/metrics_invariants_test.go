package concurrency

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"vtdynamics/internal/engine"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/simclock"
	"vtdynamics/internal/store"
	"vtdynamics/internal/vtapi"
	"vtdynamics/internal/vtclient"
	"vtdynamics/internal/vtsim"
)

// The metrics invariant suite: every identity here is a fact about
// the pipeline that instrumentation must preserve, not a tolerance.
// If any drifts, either a layer miscounts or the pipeline itself
// dropped or duplicated work.

// recordingCursor wraps MemCursor and keeps every Save so the
// committed-window sequence can be checked for monotonicity and gaps.
type recordingCursor struct {
	feed.MemCursor
	saves []time.Time
}

func (c *recordingCursor) Save(t time.Time) error {
	c.saves = append(c.saves, t)
	return c.MemCursor.Save(t)
}

// pipeline is one fully instrumented stack: simulator behind the
// HTTP API with fault injection, client, collector, and store, all
// reporting into a single private registry.
type pipeline struct {
	reg    *obs.Registry
	svc    *vtsim.Service
	clock  *simclock.SimClock
	client *vtclient.Client
	store  *store.Store
	dir    string
}

func newPipeline(t *testing.T, faults *vtapi.FaultConfig) *pipeline {
	t.Helper()
	reg := obs.NewRegistry()
	set, err := engine.NewSet(engine.DefaultRoster(), 42,
		simclock.CollectionStart, simclock.CollectionEnd)
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSim(simclock.CollectionStart)
	svc := vtsim.NewService(set, clock, vtsim.WithMetrics(reg))
	opts := []vtapi.Option{vtapi.WithMetrics(reg)}
	if faults != nil {
		opts = append(opts, vtapi.WithFaults(*faults))
	}
	srv := httptest.NewServer(vtapi.NewServer(svc, nil, opts...))
	t.Cleanup(srv.Close)
	client := vtclient.New(srv.URL,
		vtclient.WithRetries(16),
		vtclient.WithBackoff(time.Millisecond),
		vtclient.WithMetrics(reg))
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{reg: reg, svc: svc, clock: clock, client: client, store: st, dir: dir}
}

// seedWorkload submits n samples ten minutes apart through the
// service directly (not HTTP, so API counters only see the collector
// traffic) and returns the end of the generated window.
func (p *pipeline) seedWorkload(t *testing.T, n int) time.Time {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := p.svc.Upload(vtsim.UploadRequest{
			SHA256:        metricsSHA(i),
			FileType:      "Win32 EXE",
			Malicious:     i%2 == 0,
			Detectability: 0.7,
		}); err != nil {
			t.Fatal(err)
		}
		p.clock.Advance(10 * time.Minute)
	}
	return p.clock.Now().Add(time.Minute)
}

// collect runs a resumable collection over [CollectionStart, end) and
// returns the stats plus the checkpoint trail.
func (p *pipeline) collect(t *testing.T, end time.Time, workers int) (feed.Stats, *recordingCursor) {
	t.Helper()
	collector := feed.NewCollector(
		feed.SourceFunc(func(ctx context.Context, a, b time.Time) ([]report.Envelope, error) {
			return p.client.FeedBetween(ctx, a, b)
		}),
		p.store,
	)
	collector.Interval = 10 * time.Minute
	collector.Workers = workers
	collector.Metrics = p.reg
	cursor := &recordingCursor{}
	stats, err := collector.RunResumable(context.Background(), simclock.CollectionStart, end, cursor)
	if err != nil {
		t.Fatalf("collection failed: %v", err)
	}
	return stats, cursor
}

func (p *pipeline) counter(name string, kv ...string) int64 {
	return p.reg.Counter(name, kv...).Value()
}

// TestMetricsIdentitiesEndToEnd drives a faulty collection and checks
// the cross-layer identities:
//
//	api_requests_total == api_faults_total{passed} + {injected_*}
//	client_attempts_total == api_requests_total
//	client_retries_total == injected faults   (the run succeeded, so
//	                                           every fault was retried)
//	store_cache_hits + store_cache_misses == store_gets_total
//	collector committed windows: counted, monotone, and gap-free
func TestMetricsIdentitiesEndToEnd(t *testing.T) {
	p := newPipeline(t, &vtapi.FaultConfig{Error500Rate: 0.15, Error503Rate: 0.1, Seed: 7})
	end := p.seedWorkload(t, 24)
	stats, cursor := p.collect(t, end, 1)
	if stats.Envelopes != 24 {
		t.Fatalf("collected %d envelopes, want 24", stats.Envelopes)
	}

	// Server-side identity: every counted request either passed the
	// fault gate or was injected a failure.
	requests := p.reg.SumCounters("api_requests_total")
	passed := p.counter("api_faults_total", "kind", "passed")
	inj500 := p.counter("api_faults_total", "kind", "injected_500")
	inj503 := p.counter("api_faults_total", "kind", "injected_503")
	if requests != passed+inj500+inj503 {
		t.Errorf("api_requests_total = %d, faults passed %d + injected %d+%d = %d",
			requests, passed, inj500, inj503, passed+inj500+inj503)
	}
	if inj500+inj503 == 0 {
		t.Error("fault injector fired zero faults; identity test is vacuous")
	}

	// Cross-layer identity: the client put exactly as many requests on
	// the wire as the server accounted (no network errors in-process).
	if attempts := p.reg.SumCounters("client_attempts_total"); attempts != requests {
		t.Errorf("client_attempts_total = %d, api_requests_total = %d", attempts, requests)
	}

	// Every injected fault was survived by exactly one retry.
	if retries := p.reg.SumCounters("client_retries_total"); retries != inj500+inj503 {
		t.Errorf("client_retries_total = %d, injected faults = %d", retries, inj500+inj503)
	}

	// Collector: one committed window per poll, and the checkpoint
	// trail advances by exactly one interval per save.
	if committed := p.counter("collector_committed_windows_total"); committed != int64(stats.Polls) {
		t.Errorf("collector_committed_windows_total = %d, polls = %d", committed, stats.Polls)
	}
	if fetched := p.counter("collector_fetched_windows_total"); fetched != int64(stats.Polls) {
		t.Errorf("collector_fetched_windows_total = %d, polls = %d", fetched, stats.Polls)
	}
	if envs := p.counter("collector_envelopes_total"); envs != int64(stats.Envelopes) {
		t.Errorf("collector_envelopes_total = %d, stats.Envelopes = %d", envs, stats.Envelopes)
	}
	if len(cursor.saves) != stats.Polls {
		t.Fatalf("cursor saved %d times over %d polls", len(cursor.saves), stats.Polls)
	}
	for i, at := range cursor.saves {
		if i > 0 && !at.After(cursor.saves[i-1]) {
			t.Fatalf("checkpoint %d not monotone: %v after %v", i, at, cursor.saves[i-1])
		}
		if i > 0 && at.Sub(cursor.saves[i-1]) != 10*time.Minute && !at.Equal(end) {
			t.Fatalf("checkpoint gap at %d: %v -> %v", i, cursor.saves[i-1], at)
		}
	}
	if lag := p.reg.SumGauges("collector_checkpoint_lag_seconds"); lag != 0 {
		t.Errorf("checkpoint lag %d after a completed run, want 0", lag)
	}

	// Store write accounting matches what the collector committed.
	if rows := p.counter("store_put_rows_total"); rows != int64(stats.Envelopes) {
		t.Errorf("store_put_rows_total = %d, envelopes = %d", rows, stats.Envelopes)
	}

	// Checkpoint accounting: the collector Synced once per poll, a
	// Sync journals at most one record (none when the poll was empty),
	// and none of them cut a block — nothing is on disk before the
	// flush below but what filling cut, which for this small campaign
	// is nothing.
	if syncs := p.reg.Histogram("store_sync_seconds", obs.DefBuckets).Snapshot().Count; syncs != int64(stats.Polls) {
		t.Errorf("store_sync_seconds count = %d, polls = %d", syncs, stats.Polls)
	}
	records := p.counter("store_journal_records_total")
	if records == 0 || records > int64(stats.Polls) || p.counter("store_journal_bytes_total") == 0 {
		t.Errorf("store_journal_records_total = %d over %d polls (%d journal bytes)",
			records, stats.Polls, p.counter("store_journal_bytes_total"))
	}
	if cut := p.counter("store_blocks_cut_total"); cut != 0 {
		t.Errorf("store_blocks_cut_total = %d before any flush: a Sync cut a block", cut)
	}

	// Block accounting: after a flush, every cut block was sealed and
	// gzipped exactly once, so each pipeline histogram counts the cuts.
	if err := p.store.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := p.counter("store_blocks_cut_total")
	for _, name := range []string{"store_block_encode_seconds", "store_block_compress_seconds"} {
		if n := p.reg.Histogram(name, obs.DefBuckets).Snapshot().Count; n != cut {
			t.Errorf("%s count %d != store_blocks_cut_total %d", name, n, cut)
		}
	}
	if cut == 0 {
		t.Error("store_blocks_cut_total = 0 after flush; block identity test is vacuous")
	}

	// Read path: hit the store enough to exercise cache hits, misses,
	// and singleflight, then check hits + misses == gets.
	hashes := p.store.SampleHashes()
	for round := 0; round < 3; round++ {
		for _, sha := range hashes {
			if _, err := p.store.Get(sha); err != nil {
				t.Fatal(err)
			}
		}
	}
	gets := p.counter("store_gets_total")
	hits := p.counter("store_cache_hits_total")
	misses := p.counter("store_cache_misses_total")
	if hits+misses != gets {
		t.Errorf("cache hits %d + misses %d != gets %d", hits, misses, gets)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate cache accounting (hits %d, misses %d)", hits, misses)
	}

	// Pushdown scan accounting: every sidecar block a scan considers is
	// either pruned (for exactly one reason) or scanned — the counters
	// must partition. StatsByType and a filtered Scan both run on the
	// engine, so the identity is checked over real pruning traffic.
	if _, err := p.store.StatsByType(); err != nil {
		t.Fatal(err)
	}
	var flips store.FlipCountAgg
	if _, err := p.store.Scan(store.Query{
		FileTypes: []string{"Win32 EXE"},
		Since:     simclock.CollectionStart.Unix(),
		Cols:      store.ColSHA | store.ColResults,
	}, &flips); err != nil {
		t.Fatal(err)
	}
	scanBlocks := p.counter("store_scan_blocks_total")
	scanScanned := p.counter("store_scan_blocks_scanned_total")
	prunedSum := p.reg.SumCounters("store_blocks_pruned_total")
	if prunedSum+scanScanned != scanBlocks {
		t.Errorf("store_blocks_pruned_total %d + store_scan_blocks_scanned_total %d != store_scan_blocks_total %d",
			prunedSum, scanScanned, scanBlocks)
	}
	if scanBlocks == 0 {
		t.Error("store_scan_blocks_total = 0 after scans; pruning identity test is vacuous")
	}

	// Simulator: every analysis appended exactly one feed envelope,
	// and shard occupancy gauges sum to the distinct-sample count.
	scans := p.counter("sim_scans_total")
	appends := p.counter("sim_feed_appends_total")
	if scans != appends {
		t.Errorf("sim_scans_total = %d, sim_feed_appends_total = %d", scans, appends)
	}
	if occ := p.reg.SumGauges("sim_shard_samples"); occ != int64(p.svc.NumSamples()) {
		t.Errorf("shard occupancy sums to %d, NumSamples = %d", occ, p.svc.NumSamples())
	}
	if flen := p.reg.SumGauges("sim_feed_length"); flen != int64(p.svc.NumReports()) {
		t.Errorf("sim_feed_length = %d, NumReports = %d", flen, p.svc.NumReports())
	}
}

// TestMetricsIdentitiesConcurrentCollector repeats the identity check
// with concurrent fetch workers: ordered commits must keep every
// identity intact while in-flight slices overlap.
func TestMetricsIdentitiesConcurrentCollector(t *testing.T) {
	p := newPipeline(t, &vtapi.FaultConfig{Error500Rate: 0.1, Error503Rate: 0.1, Seed: 11})
	end := p.seedWorkload(t, 24)
	stats, cursor := p.collect(t, end, 8)
	if stats.Envelopes != 24 {
		t.Fatalf("collected %d envelopes, want 24", stats.Envelopes)
	}
	requests := p.reg.SumCounters("api_requests_total")
	faults := p.reg.SumCounters("api_faults_total")
	if requests != faults {
		t.Errorf("api_requests_total = %d, api_faults_total = %d", requests, faults)
	}
	if attempts := p.reg.SumCounters("client_attempts_total"); attempts != requests {
		t.Errorf("client_attempts_total = %d, api_requests_total = %d", attempts, requests)
	}
	if committed := p.counter("collector_committed_windows_total"); committed != int64(stats.Polls) {
		t.Errorf("committed windows %d, polls %d", committed, stats.Polls)
	}
	for i := 1; i < len(cursor.saves); i++ {
		if !cursor.saves[i].After(cursor.saves[i-1]) {
			t.Fatalf("concurrent checkpoints not monotone at %d", i)
		}
	}
	if inflight := p.reg.SumGauges("collector_inflight_slices"); inflight != 0 {
		t.Errorf("collector_inflight_slices = %d after run, want 0", inflight)
	}
}

// TestFaultyCollectionStoreByteIdentical is the fault-transparency
// proof: a collection surviving injected 500s/503s must write a store
// byte-identical to a fault-free run of the same campaign — while the
// client metrics prove the faults actually happened.
func TestFaultyCollectionStoreByteIdentical(t *testing.T) {
	runCampaign := func(faults *vtapi.FaultConfig) (string, *obs.Registry) {
		p := newPipeline(t, faults)
		end := p.seedWorkload(t, 20)
		if stats, _ := p.collect(t, end, 1); stats.Envelopes != 20 {
			t.Fatalf("collected %d envelopes, want 20", stats.Envelopes)
		}
		if err := p.store.Close(); err != nil {
			t.Fatal(err)
		}
		return p.dir, p.reg
	}

	cleanDir, cleanReg := runCampaign(nil)
	faultyDir, faultyReg := runCampaign(&vtapi.FaultConfig{
		Error500Rate: 0.2, Error503Rate: 0.1, Seed: 3})

	if n := cleanReg.SumCounters("client_retries_total"); n != 0 {
		t.Fatalf("fault-free run recorded %d retries", n)
	}
	retries := faultyReg.SumCounters("client_retries_total")
	if retries == 0 {
		t.Fatal("faulty run recorded zero retries; comparison is vacuous")
	}

	clean := hashStoreFiles(t, cleanDir)
	faulty := hashStoreFiles(t, faultyDir)
	if len(clean) == 0 {
		t.Fatal("no store files to compare")
	}
	for _, name := range sortedKeys(clean) {
		if faulty[name] != clean[name] {
			t.Errorf("%s differs between clean (%s) and faulty (%s) runs",
				name, clean[name], faulty[name])
		}
	}
	if len(faulty) != len(clean) {
		t.Errorf("file sets differ: clean %d files, faulty %d", len(clean), len(faulty))
	}
	t.Logf("stores byte-identical across %d files with %d client retries", len(clean), retries)
}

// hashStoreFiles returns name -> SHA-256 for every partition and
// snapshot file in a store directory.
func hashStoreFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".gz" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func metricsSHA(i int) string {
	return fmt.Sprintf("metrics%08x", i)
}
