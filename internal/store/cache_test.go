package store

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/report"
)

func testHistory(sha string, rank int) *report.History {
	env := envelope(sha, t0, rank)
	scan := env.Scan
	return &report.History{Meta: env.Meta, Reports: []*report.ScanReport{&scan}}
}

func TestCacheSingleflight(t *testing.T) {
	c := newHistoryCache(16, newStoreMetrics(obs.NewRegistry()))
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func(sha string) (*report.History, error) {
		loads.Add(1)
		<-gate // hold every would-be loader here
		return testHistory(sha, 3), nil
	}
	const readers = 16
	var wg sync.WaitGroup
	results := make([]*report.History, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.get("hot", load)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = h
		}(i)
	}
	// Let the leader through once all readers are racing toward the
	// same sha; followers must wait on its flight, not load again.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times for one sha", n)
	}
	// Every caller got a private History and Reports slice over the
	// same shared (immutable) report elements.
	for i := 1; i < readers; i++ {
		if results[i] == results[0] {
			t.Fatal("callers share the History struct")
		}
		if results[i].Reports[0] != results[0].Reports[0] {
			t.Fatal("followers did not share the cached reports")
		}
		results[i].Reports = results[i].Reports[:0] // private slice: no cross-talk
		if len(results[0].Reports) == 0 {
			t.Fatal("callers share the Reports slice")
		}
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries", c.len())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newHistoryCache(2, newStoreMetrics(obs.NewRegistry()))
	var loads atomic.Int64
	load := func(sha string) (*report.History, error) {
		loads.Add(1)
		return testHistory(sha, 1), nil
	}
	for _, sha := range []string{"a", "b", "c"} { // c evicts a
		if _, err := c.get(sha, load); err != nil {
			t.Fatal(err)
		}
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, cap 2", c.len())
	}
	if _, err := c.get("b", load); err != nil { // hit
		t.Fatal(err)
	}
	if n := loads.Load(); n != 3 {
		t.Fatalf("loads = %d after b hit, want 3", n)
	}
	if _, err := c.get("a", load); err != nil { // was evicted: reload
		t.Fatal(err)
	}
	if n := loads.Load(); n != 4 {
		t.Fatalf("loads = %d after evicted a, want 4", n)
	}
}

func TestCacheInvalidatePoisonsFlight(t *testing.T) {
	c := newHistoryCache(16, newStoreMetrics(obs.NewRegistry()))
	started := make(chan struct{})
	gate := make(chan struct{})
	var loads atomic.Int64
	load := func(sha string) (*report.History, error) {
		loads.Add(1)
		if loads.Load() == 1 {
			close(started)
			<-gate
		}
		return testHistory(sha, int(loads.Load())), nil
	}
	done := make(chan *report.History, 1)
	go func() {
		h, err := c.get("x", load)
		if err != nil {
			t.Error(err)
		}
		done <- h
	}()
	<-started
	// A Put lands mid-decode: the in-flight result predates the write
	// and must be returned to its waiters but never cached.
	c.invalidate("x")
	close(gate)
	h := <-done
	if h == nil || h.Reports[0].AVRank != 1 {
		t.Fatalf("waiter result = %+v", h)
	}
	if c.len() != 0 {
		t.Fatal("poisoned flight was cached")
	}
	// Next get reloads from disk.
	if _, err := c.get("x", load); err != nil {
		t.Fatal(err)
	}
	if n := loads.Load(); n != 2 {
		t.Fatalf("loads = %d, want 2", n)
	}
}

// TestGetOwnedSliceSharedReports pins Get's contract: the History and
// Reports slice are caller-owned, while the report elements are
// shared — a caller who follows the contract (Clone before mutating a
// report) can never corrupt cached state.
func TestGetOwnedSliceSharedReports(t *testing.T) {
	s := openStore(t)
	if err := s.Put(envelope("deep", t0, 4)); err != nil {
		t.Fatal(err)
	}
	h1, err := s.Get("deep")
	if err != nil {
		t.Fatal(err)
	}
	// Everything the contract says is the caller's: meta (a value
	// copy), the slice itself, and a Clone of a shared report.
	h1.Meta.FileType = "mutated"
	own := h1.Reports[0].Clone()
	own.AVRank = 999
	own.Results[0].Engine = "mutated"
	h1.Reports = h1.Reports[:0]

	h2, err := s.Get("deep")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Meta.FileType != "Win32 EXE" || len(h2.Reports) != 1 ||
		h2.Reports[0].AVRank != 4 || h2.Reports[0].Results[0].Engine != "Avast" {
		t.Fatalf("cached state leaked caller mutations: %+v", h2)
	}
	// Two hits share the underlying report storage (the point of the
	// contract: hits stop deep-copying).
	h3, err := s.Get("deep")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Reports[0] != h3.Reports[0] {
		t.Fatal("cache hits did not share report elements")
	}
}

// TestGetSharedReportsImmutableUnderRace drives concurrent Gets and
// deep reads of every shared field while Puts of other samples churn
// the cache. Under -race this proves nothing writes a published
// report; without -race it still exercises the slice-privacy rules.
func TestGetSharedReportsImmutableUnderRace(t *testing.T) {
	s := openStore(t)
	if err := s.Put(envelope("shared", t0, 4)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(100*time.Millisecond, func() { close(stop) })
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, err := s.Get("shared")
				if err != nil {
					t.Error(err)
					return
				}
				// Deep read of shared state.
				for _, r := range h.Reports {
					if r.SHA256 != "shared" || len(r.Results) == 0 {
						t.Errorf("goroutine %d saw torn report: %+v", g, r)
						return
					}
					for _, er := range r.Results {
						_ = er.Engine
						_ = er.Label
					}
				}
				// Exercise caller-owned mutations only.
				h.Reports = append(h.Reports, h.Reports...)
				if i%7 == 0 {
					if err := s.Put(envelope(fmt.Sprintf("churn-%d-%d", g, i), t0, 1)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestPutInvalidatesCachedHistory(t *testing.T) {
	s := openStore(t)
	if err := s.Put(envelope("inv", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if h, err := s.Get("inv"); err != nil || len(h.Reports) != 1 {
		t.Fatalf("first get: %v", err)
	}
	if s.CachedHistories() != 1 {
		t.Fatalf("cached = %d", s.CachedHistories())
	}
	if err := s.Put(envelope("inv", t0.Add(time.Hour), 2)); err != nil {
		t.Fatal(err)
	}
	h, err := s.Get("inv")
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Reports) != 2 {
		t.Fatalf("stale cache served after Put: %d reports", len(h.Reports))
	}
}

func TestCacheDisabled(t *testing.T) {
	s, err := Open(t.TempDir(), WithCacheSize(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(envelope("nc", t0, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if h, err := s.Get("nc"); err != nil || len(h.Reports) != 1 {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if s.CachedHistories() != 0 {
		t.Fatalf("disabled cache holds %d entries", s.CachedHistories())
	}
}

func TestCacheConcurrentMixedShas(t *testing.T) {
	c := newHistoryCache(8, newStoreMetrics(obs.NewRegistry()))
	var loads atomic.Int64
	load := func(sha string) (*report.History, error) {
		loads.Add(1)
		return testHistory(sha, 1), nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sha := fmt.Sprintf("s%d", i%16)
				if i%17 == 0 {
					c.invalidate(sha)
				}
				if _, err := c.get(sha, load); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 8 {
		t.Fatalf("cache exceeded capacity: %d", c.len())
	}
}
