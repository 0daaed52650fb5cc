// Read cache: a size-bounded LRU of decoded histories with
// singleflight-style in-flight deduplication. Concurrent Gets of a
// hot sample decode its blocks once; every caller receives a fresh
// History (meta copied by value, fresh Reports slice) whose
// *ScanReport elements are shared with the cache and treated as
// immutable — see Store.Get for the contract. Sharing the reports
// removes the dominant allocation on cache hits (a deep Clone of
// every report, per caller); TestGetSharedReportsImmutableUnderRace
// holds the contract under the race detector.
package store

import (
	"container/list"
	"sync"

	"vtdynamics/internal/report"
)

// cacheSizeDefault bounds the history cache in entries. A history is
// a handful of decoded reports, so even pathological ones keep the
// default cache in the low tens of megabytes.
const cacheSizeDefault = 4096

type historyCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List               // front = most recently used
	entries map[string]*list.Element // sha -> element; value is *cacheEntry
	flights map[string]*flight
	// m receives the cache counters. A singleflight follower counts as
	// a hit (it triggered no load) plus a dedup, so hits + misses always
	// equals Gets through the cache.
	m *storeMetrics
}

type cacheEntry struct {
	sha string
	h   *report.History
}

// flight is one in-progress decode. Followers block on done; the
// leader publishes h/err before closing it. dirty is set by
// invalidate so a decode that raced a Put is returned to its waiters
// but never cached.
type flight struct {
	done  chan struct{}
	h     *report.History
	err   error
	dirty bool
}

func newHistoryCache(capacity int, m *storeMetrics) *historyCache {
	if capacity <= 0 {
		return nil
	}
	return &historyCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
		m:       m,
	}
}

// get returns the sample's history, loading via load on a miss. Only
// one goroutine runs load per sha at a time; the rest wait for its
// result. The returned History and its Reports slice are private to
// the caller; the *ScanReport elements are shared and immutable.
func (c *historyCache) get(sha string, load func(string) (*report.History, error)) (*report.History, error) {
	c.mu.Lock()
	if el, ok := c.entries[sha]; ok {
		c.ll.MoveToFront(el)
		h := el.Value.(*cacheEntry).h
		c.mu.Unlock()
		c.m.cacheHits.Inc()
		return shareHistory(h), nil
	}
	if fl, ok := c.flights[sha]; ok {
		c.mu.Unlock()
		c.m.cacheHits.Inc()
		c.m.dedup.Inc()
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		return shareHistory(fl.h), nil
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[sha] = fl
	c.mu.Unlock()
	c.m.cacheMisses.Inc()

	h, err := load(sha)

	c.mu.Lock()
	delete(c.flights, sha)
	fl.h, fl.err = h, err
	if err == nil && !fl.dirty {
		c.insertLocked(sha, h)
	}
	c.mu.Unlock()
	close(fl.done)
	if err != nil {
		return nil, err
	}
	return shareHistory(h), nil
}

// insertLocked adds an entry and evicts past capacity. Caller holds mu.
func (c *historyCache) insertLocked(sha string, h *report.History) {
	if el, ok := c.entries[sha]; ok {
		el.Value.(*cacheEntry).h = h
		c.ll.MoveToFront(el)
		return
	}
	c.entries[sha] = c.ll.PushFront(&cacheEntry{sha: sha, h: h})
	for c.ll.Len() > c.cap {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).sha)
		c.m.cacheEvictions.Inc()
	}
}

// invalidate drops the sample's cached history and poisons any
// in-flight decode so a result that predates the write is never
// cached. Called on every Put of the sample.
func (c *historyCache) invalidate(sha string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if el, ok := c.entries[sha]; ok {
		c.ll.Remove(el)
		delete(c.entries, sha)
	}
	if fl, ok := c.flights[sha]; ok {
		fl.dirty = true
	}
	c.mu.Unlock()
}

// len reports the number of cached histories.
func (c *historyCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// shareHistory hands out a cached history: the meta by value and a
// fresh Reports slice over the same *ScanReport elements. The shared
// reports are never mutated after decode — invalidation replaces
// whole histories, never edits one — so concurrent readers are safe
// as long as callers honor Store.Get's read-only contract.
func shareHistory(h *report.History) *report.History {
	return &report.History{
		Meta:    h.Meta,
		Reports: append([]*report.ScanReport(nil), h.Reports...),
	}
}
