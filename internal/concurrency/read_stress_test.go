package concurrency

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
)

// TestStoreReadPathStress hammers the indexed read path while writers
// keep appending: concurrent Gets (cache hits, misses, singleflight
// leaders), IterAll passes, Syncs, and Flushes, all under go test
// -race. Every row is unique (its timestamp is its writer's sequence
// number), so each Get is checked for exactly-once reads: every row
// acknowledged before the Get started is present — read-your-writes —
// no row appears twice, and reports come in nondecreasing time order.
// A Get reads a month's pending rows and its block horizon in one
// critical section with the writer; a row sealed between the two would
// show up here as missing or doubled.
func TestStoreReadPathStress(t *testing.T) {
	const (
		writers = 8
		readers = 8
		perW    = 30
	)
	// Small blocks so the stress crosses many member boundaries.
	s, err := store.Open(t.TempDir(), store.WithBlockSize(2<<10), store.WithCacheSize(64))
	if err != nil {
		t.Fatal(err)
	}
	// Seed every key so readers never race an unknown sample.
	for w := 0; w < writers; w++ {
		for i := 0; i < 4; i++ {
			if err := s.Put(storeEnvelope(keyFor(w, i), storeT0, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// acked holds, per key, the timestamps of the rows whose Put
	// returned; the seed rows sit at storeT0, before every writer row.
	var (
		ackMu sync.Mutex
		acked = make(map[string][]time.Time)
	)
	for w := 0; w < writers; w++ {
		for i := 0; i < 4; i++ {
			acked[keyFor(w, i)] = []time.Time{storeT0}
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				key := keyFor(w, i%4)
				at := storeT0.Add(time.Duration(i%2) * 31 * 24 * time.Hour).Add(time.Duration(i+1) * time.Minute)
				if err := s.Put(storeEnvelope(key, at, i%6)); err != nil {
					errc <- err
					return
				}
				ackMu.Lock()
				acked[key] = append(acked[key], at)
				ackMu.Unlock()
			}
		}(w)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keyFor(r%writers, n%4)
				ackMu.Lock()
				want := append([]time.Time(nil), acked[key]...)
				ackMu.Unlock()
				h, err := s.Get(key)
				if err != nil {
					errc <- err
					return
				}
				if err := exactlyOnce(h, want); err != nil {
					errc <- fmt.Errorf("Get(%s): %w", key, err)
					return
				}
				// The returned History and Reports slice are private:
				// scribbling on them must never corrupt what other
				// readers see.
				h.Reports[0] = &report.ScanReport{AVRank: -1}
				h.Meta.FileType = "scribble"
			}
		}(r)
	}
	// One goroutine cycles durability points; another runs full
	// parallel passes concurrently with everything else.
	rg.Add(1)
	go func() {
		defer rg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			if n%2 == 0 {
				err = s.Sync()
			} else {
				err = s.Flush()
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var mu sync.Mutex
			rows := 0
			if err := s.IterAll(4, func(month string, r *report.ScanReport) error {
				mu.Lock()
				rows++
				mu.Unlock()
				return r.Validate()
			}); err != nil {
				errc <- err
				return
			}
			if rows < writers*4 {
				errc <- fmt.Errorf("IterAll saw %d rows, fewer than the seed", rows)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	rg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	want := writers*4 + writers*perW
	if got := s.TotalStats().Reports; got != want {
		t.Fatalf("reports = %d, want %d", got, want)
	}
	if n, err := s.VerifyWorkers(4); err != nil || n != want {
		t.Fatalf("VerifyWorkers = %d, %v (want %d)", n, err, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func keyFor(w, i int) string { return fmt.Sprintf("rd-%02d-%d", w, i) }

// exactlyOnce checks one Get of a sample whose rows all have distinct
// timestamps: in nondecreasing time order, no row twice, and every
// acknowledged timestamp in acked present.
func exactlyOnce(h *report.History, acked []time.Time) error {
	seen := make(map[int64]bool, len(h.Reports))
	for i, r := range h.Reports {
		if i > 0 && r.AnalysisDate.Before(h.Reports[i-1].AnalysisDate) {
			return fmt.Errorf("out of order at %d", i)
		}
		if seen[r.AnalysisDate.Unix()] {
			return fmt.Errorf("row at %v returned twice", r.AnalysisDate)
		}
		seen[r.AnalysisDate.Unix()] = true
	}
	for _, at := range acked {
		if !seen[at.Unix()] {
			return fmt.Errorf("acknowledged row at %v missing from %d rows", at, len(h.Reports))
		}
	}
	return nil
}

// TestStoreGetDeterministicUnderWriters checks that once writes
// quiesce, repeated Gets return the identical report sequence no
// matter which path (cache or block index) served them.
func TestStoreGetDeterministicUnderWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				// All writers share one sample with colliding
				// timestamps — the hard case for stable ordering.
				at := storeT0.Add(time.Duration(i%5) * time.Hour)
				if err := s.Put(storeEnvelope("shared", at, w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	base, err := s.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Reports) != 100 {
		t.Fatalf("reports = %d", len(base.Reports))
	}
	fingerprint := func(h *report.History) string {
		var fp string
		for _, r := range h.Reports {
			fp += fmt.Sprintf("%d@%d;", r.AVRank, r.AnalysisDate.Unix())
		}
		return fp
	}
	want := fingerprint(base)
	// Cached reads, then a cold reopen (index path), must agree.
	for i := 0; i < 3; i++ {
		h, err := s.Get("shared")
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(h) != want {
			t.Fatalf("cached Get %d diverged", i)
		}
	}
	// Close writes the metadata snapshot; the reopen then serves the
	// same order from the persisted sidecar index.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := s2.Get("shared")
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(h2) != want {
		t.Fatal("reopened Get diverged from the original order")
	}
}
