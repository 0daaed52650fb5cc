package concurrency

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/experiments"
	"vtdynamics/internal/feed"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
)

// pipelineSize mirrors the EXPERIMENTS.md service/feed/store
// configuration (8,000 samples through the full pipeline); -short
// uses the experiments suite's own small scale.
func pipelineSize(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 1_500
	}
	return 8_000
}

// hashDir returns path → SHA-256 of contents for every file in dir.
func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			t.Fatal(err)
		}
		f.Close()
		out[e.Name()] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// TestPipelineDeterminismAcrossWorkers is the golden determinism
// harness: the full service→feed→store mini-pipeline (the
// EXPERIMENTS.md Table 2 configuration) runs at -workers=1 and
// -workers=8 with the same seed, and every observable output must be
// identical — the Table 2 result struct (total stats, sample counts,
// per-month partition stats) and, stronger, the byte-identical
// on-disk store: every partition file, the metadata snapshot, and the
// stats sidecar hash equal. Worker count is a wall-clock knob only.
// The subtest is named for the block format the store writes.
func TestPipelineDeterminismAcrossWorkers(t *testing.T) {
	size := pipelineSize(t)
	t.Run("v2", func(t *testing.T) {
		run := func(workers int) (*experiments.Table2Result, map[string]string) {
			r, err := experiments.NewRunner(experiments.Config{
				Seed:             1,
				PopulationSize:   1, // unused by Table 2
				DynamicsSize:     1, // unused by Table 2
				CorrelationScans: 1, // unused by Table 2
				ServiceSize:      size,
				Workers:          workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			res, err := r.Table2DatasetOverview(dir)
			if err != nil {
				t.Fatal(err)
			}
			return res, hashDir(t, dir)
		}

		res1, files1 := run(1)
		res8, files8 := run(8)

		if !reflect.DeepEqual(res1, res8) {
			t.Errorf("Table 2 results diverge:\nworkers=1: %+v\nworkers=8: %+v", res1, res8)
		}
		if res1.TotalSamples != size {
			t.Errorf("TotalSamples = %d, want %d", res1.TotalSamples, size)
		}
		if res1.TotalReports == 0 || len(res1.Rows) == 0 {
			t.Fatalf("empty pipeline output: %+v", res1)
		}

		var names1, names8 []string
		for n := range files1 {
			names1 = append(names1, n)
		}
		for n := range files8 {
			names8 = append(names8, n)
		}
		sort.Strings(names1)
		sort.Strings(names8)
		if !reflect.DeepEqual(names1, names8) {
			t.Fatalf("store file sets diverge:\nworkers=1: %v\nworkers=8: %v", names1, names8)
		}
		for _, name := range names1 {
			if files1[name] != files8[name] {
				t.Errorf("store file %s differs between workers=1 and workers=8", name)
			}
		}
	})
}

// TestStoreDeterminismMixedBatch pins that the on-disk bytes depend
// only on the envelope sequence, not on how it was chunked: the same
// 240 envelopes written one-by-one via Put versus an irregular
// interleaving of Put calls and PutBatch slices must produce
// byte-identical store directories. A small block size forces several
// mid-stream block cuts so chunk boundaries land both inside and
// across blocks. The subtest is named for the block format written.
func TestStoreDeterminismMixedBatch(t *testing.T) {
	envs := make([]report.Envelope, 0, 240)
	for i := 0; i < 240; i++ {
		at := storeT0.Add(time.Duration(i) * 11 * time.Hour)
		envs = append(envs, storeEnvelope(fmt.Sprintf("mx-%03d", i%40), at, i%6))
	}
	t.Run("v2", func(t *testing.T) {
		write := func(mixed bool) map[string]string {
			dir := t.TempDir()
			s, err := store.Open(dir, store.WithBlockSize(4<<10))
			if err != nil {
				t.Fatal(err)
			}
			if mixed {
				for i := 0; i < len(envs); {
					if (i/7)%2 == 0 {
						if err := s.Put(envs[i]); err != nil {
							t.Fatal(err)
						}
						i++
						continue
					}
					end := i + 9
					if end > len(envs) {
						end = len(envs)
					}
					if err := s.PutBatch(envs[i:end]); err != nil {
						t.Fatal(err)
					}
					i = end
				}
			} else {
				for _, env := range envs {
					if err := s.Put(env); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			return hashDir(t, dir)
		}
		plain, mixed := write(false), write(true)
		if !reflect.DeepEqual(plain, mixed) {
			t.Fatalf("Put-only and mixed Put/PutBatch stores diverge:\nput-only: %v\nmixed:    %v", plain, mixed)
		}
	})
}

// TestPipelineDeterminismSameWorkers is the repeatability control:
// two runs at the same worker count must also be identical (if this
// fails, nondeterminism is in the pipeline itself, not the worker
// fan-out).
func TestPipelineDeterminismSameWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestPipelineDeterminismAcrossWorkers at full scale")
	}
	run := func() map[string]string {
		r, err := experiments.NewRunner(experiments.Config{
			Seed:             1,
			PopulationSize:   1,
			DynamicsSize:     1,
			CorrelationScans: 1,
			ServiceSize:      1_500,
			Workers:          8,
		})
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := r.Table2DatasetOverview(dir); err != nil {
			t.Fatal(err)
		}
		return hashDir(t, dir)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same-seed same-workers runs diverge")
	}
}

// TestStoreDeterminismCheckpointed pins that a checkpoint leaves no
// trace in the closed store: the same campaign collected with a
// store.Sync after every window (RunResumable) and with none (Run), at
// one fetch worker and at eight, must Close into file-for-file
// identical directories, with no checkpoint.log left behind. Sync
// journals rows instead of cutting under-filled blocks, so it also cuts
// none: store_blocks_cut_total must agree too. The subtest is named for
// the block format written.
func TestStoreDeterminismCheckpointed(t *testing.T) {
	envs := make([]report.Envelope, 0, 360)
	for i := 0; i < 360; i++ {
		at := storeT0.Add(time.Duration(i) * 7 * time.Hour)
		envs = append(envs, storeEnvelope(fmt.Sprintf("ck-%03d", i%50), at, i%6))
	}
	start, end := storeT0, storeT0.Add(360*7*time.Hour)
	t.Run("v2", func(t *testing.T) {
		collect := func(checkpoint bool, workers int) (map[string]string, int64) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			s, err := store.Open(dir, store.WithBlockSize(4<<10), store.WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			c := feed.NewCollector(&scriptedSource{envs: envs}, s)
			c.Interval = 24 * time.Hour
			c.Workers = workers
			var stats feed.Stats
			if checkpoint {
				stats, err = c.RunResumable(context.Background(), start, end, &feed.MemCursor{})
			} else {
				stats, err = c.Run(context.Background(), start, end)
			}
			if err != nil || stats.Envelopes != len(envs) {
				t.Fatalf("collected %d of %d envelopes: %v", stats.Envelopes, len(envs), err)
			}
			if records := reg.SumCounters("store_journal_records_total"); checkpoint == (records == 0) {
				t.Fatalf("checkpoint=%v journaled %d records", checkpoint, records)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return hashDir(t, dir), reg.SumCounters("store_blocks_cut_total")
		}
		want, wantCuts := collect(false, 1)
		if _, ok := want["samples.jsonl.gz"]; !ok || len(want) < 5 {
			t.Fatalf("reference store holds %v", want)
		}
		for _, run := range []struct {
			checkpoint bool
			workers    int
		}{{false, 8}, {true, 1}, {true, 8}} {
			got, cuts := collect(run.checkpoint, run.workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("checkpoint=%v workers=%d: directory differs from the uncheckpointed serial run:\n got %v\nwant %v",
					run.checkpoint, run.workers, got, want)
			}
			if cuts != wantCuts {
				t.Errorf("checkpoint=%v workers=%d: cut %d blocks, uncheckpointed serial run cut %d",
					run.checkpoint, run.workers, cuts, wantCuts)
			}
		}
	})
}

// TestStoreReadsNeverWrite pins that reads leave no trace in the store:
// the same campaign written with no reads, with reads between its
// PutBatches, and beside a reader goroutine must Close into
// file-for-file identical directories with equal
// store_blocks_cut_total — every read (Get, Scan, IterAll, StatsByType,
// Verify) serves rows still pending in an open block from the writer's
// memory instead of sealing them. Each row carries its put ordinal (the
// first result's signature version). A Get taken mid-campaign must
// equal the reopened store's history of that sample restricted to the
// rows it returned plus every row acknowledged before it started:
// nothing acknowledged missing, nothing twice, and storage order kept.
// Ties are the hard case for the order, so each sample holds pairs of
// rows with equal timestamps. The full-store reads must count every
// acknowledged row, exactly so between batches. In the concurrent arms
// the writer sends no batch until a read that started after the
// previous one was acknowledged has completed, so reads interleave with
// every batch in every run. Verify runs between batches only: Put
// writes a row before it indexes the sample, so a concurrent Verify may
// see a row of a sample not yet known.
func TestStoreReadsNeverWrite(t *testing.T) {
	const samples = 40
	envs := make([]report.Envelope, 0, 480)
	for i := 0; i < cap(envs); i++ {
		at := storeT0.Add(time.Duration(i/(2*samples)) * 10 * 24 * time.Hour)
		env := storeEnvelope(fmt.Sprintf("rw-%03d", i%samples), at, i%6)
		env.Scan.Results[0].SignatureVersion = i
		envs = append(envs, env)
	}
	ordinals := func(h *report.History) []int {
		out := make([]int, len(h.Reports))
		for i, r := range h.Reports {
			out[i] = r.Results[0].SignatureVersion
		}
		return out
	}
	// counted checks a full-store read's row count against the a rows
	// acknowledged when it started: all of them and at most every row
	// written, or exactly them when no Put ran beside the read.
	counted := func(what string, n int64, a int, exact bool) error {
		if n < int64(a) || n > int64(len(envs)) || (exact && n != int64(a)) {
			return fmt.Errorf("%s counted %d rows with %d acknowledged (exact=%v)", what, n, a, exact)
		}
		return nil
	}
	// seen is one mid-campaign Get: the ordinals it returned, and how
	// many envelopes had been acknowledged when it started.
	type seen struct {
		sha   string
		got   []int
		acked int
	}
	// fullReads are the full-store reads, each checked where it runs.
	fullReads := map[string]func(s *store.Store, a int, exact bool) error{
		"scan": func(s *store.Store, a int, exact bool) error {
			var count store.CountAgg
			var group store.GroupCountByType
			if _, err := s.Scan(store.Query{Cols: store.ColFT}, &store.MultiAgg{Aggs: []store.Agg{&count, &group}}); err != nil {
				return err
			}
			var byType int64
			for _, n := range group.Counts {
				byType += n
			}
			if byType != count.N {
				return fmt.Errorf("census groups %d rows, counts %d", byType, count.N)
			}
			return counted("Scan", count.N, a, exact)
		},
		"iterall": func(s *store.Store, a int, exact bool) error {
			var mu sync.Mutex
			got := make(map[int]bool)
			err := s.IterAll(2, func(_ string, r *report.ScanReport) error {
				mu.Lock()
				defer mu.Unlock()
				o := r.Results[0].SignatureVersion
				if got[o] {
					return fmt.Errorf("IterAll returned ordinal %d twice", o)
				}
				got[o] = true
				return nil
			})
			if err != nil {
				return err
			}
			for o := 0; o < a; o++ {
				if !got[o] {
					return fmt.Errorf("IterAll missed acknowledged ordinal %d", o)
				}
			}
			return counted("IterAll", int64(len(got)), a, exact)
		},
		"statsbytype": func(s *store.Store, a int, exact bool) error {
			byType, err := s.StatsByType()
			if err != nil {
				return err
			}
			var n int64
			for _, ts := range byType {
				n += int64(ts.Reports)
			}
			return counted("StatsByType", n, a, exact)
		},
		"verify": func(s *store.Store, a int, exact bool) error {
			n, err := s.Verify()
			if err != nil {
				return err
			}
			return counted("Verify", int64(n), a, exact)
		},
	}
	collect := func(read string, concurrent bool) (dir string, cuts int64, gets []seen, reads int) {
		dir = t.TempDir()
		reg := obs.NewRegistry()
		s, err := store.Open(dir, store.WithBlockSize(4<<10), store.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		readOnce := func(a int, batch []report.Envelope) error {
			reads++
			if read != "get" {
				return fullReads[read](s, a, !concurrent)
			}
			shas := make([]string, 0, len(batch))
			for _, env := range batch {
				shas = append(shas, env.Meta.SHA256)
			}
			if concurrent {
				shas = []string{envs[a-1-reads%min(a, samples)].Meta.SHA256}
			}
			for _, sha := range shas {
				h, err := s.Get(sha)
				if err != nil {
					return err
				}
				gets = append(gets, seen{sha, ordinals(h), a})
			}
			return nil
		}
		// lastRead is the acknowledged count at the start of the latest
		// completed concurrent read; readDone signals that it moved.
		var acked, lastRead atomic.Int64
		stop, done, readDone := make(chan struct{}), make(chan error, 1), make(chan struct{}, 1)
		if concurrent {
			go func() {
				for {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					a := int(acked.Load())
					if a == 0 {
						runtime.Gosched()
						continue
					}
					if err := readOnce(a, nil); err != nil {
						done <- err
						return
					}
					lastRead.Store(int64(a))
					select {
					case readDone <- struct{}{}:
					default:
					}
				}
			}()
		}
		for i := 0; i < len(envs); i += 9 {
			batch := envs[i:min(i+9, len(envs))]
			if err := s.PutBatch(batch); err != nil {
				t.Fatal(err)
			}
			n := i + len(batch)
			acked.Store(int64(n))
			switch {
			case read == "none":
			case !concurrent:
				if err := readOnce(n, batch); err != nil {
					t.Fatal(err)
				}
			case n < len(envs):
				// Handshake: the next batch waits for a read that
				// started after this one was acknowledged.
				for lastRead.Load() < int64(n) {
					select {
					case <-readDone:
					case err := <-done:
						t.Fatalf("concurrent %s stopped: %v", read, err)
					}
				}
			}
		}
		if concurrent {
			close(stop)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, reg.SumCounters("store_blocks_cut_total"), gets, reads
	}

	wantDir, wantCuts, _, _ := collect("none", false)
	if wantCuts < 10 {
		t.Fatalf("reference campaign cut %d blocks; it must cross many", wantCuts)
	}
	want := hashDir(t, wantDir)
	for _, arm := range []struct {
		read       string
		concurrent bool
	}{
		{"get", false}, {"get", true},
		{"scan", false}, {"scan", true},
		{"iterall", false}, {"iterall", true},
		{"statsbytype", false}, {"statsbytype", true},
		{"verify", false},
	} {
		mode := arm.read + " between batches"
		if arm.concurrent {
			mode = arm.read + " concurrent"
		}
		dir, cuts, gets, reads := collect(arm.read, arm.concurrent)
		if got := hashDir(t, dir); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: directory differs from the read-free run:\n got %v\nwant %v", mode, got, want)
		}
		if cuts != wantCuts {
			t.Errorf("%s: cut %d blocks, the read-free run cut %d", mode, cuts, wantCuts)
		}
		if batches := (len(envs)+8)/9 - 1; reads < batches {
			t.Fatalf("%s: %d reads ran, fewer than the %d batches they interleave with", mode, reads, batches)
		}
		if arm.read != "get" {
			continue
		}
		re, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gets {
			h, err := re.Get(g.sha)
			if err != nil {
				t.Fatal(err)
			}
			returned := make(map[int]bool, len(g.got))
			for _, o := range g.got {
				returned[o] = true
			}
			var wantOrd []int
			for _, o := range ordinals(h) {
				if o < g.acked || returned[o] {
					wantOrd = append(wantOrd, o)
				}
			}
			if !reflect.DeepEqual(g.got, wantOrd) {
				t.Fatalf("%s: Get(%s) with %d rows acknowledged returned ordinals %v; the reopened store gives %v",
					mode, g.sha, g.acked, g.got, wantOrd)
			}
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
