package obs

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// numCells is the per-metric shard-cell count: enough cells that
// concurrent writers on different CPUs rarely collide on a cache
// line, capped so idle metrics stay small.
var numCells = cellCount()

func cellCount() int {
	n := runtime.NumCPU()
	p := 1
	for p < n {
		p <<= 1
	}
	if p > 64 {
		p = 64
	}
	return p
}

// cell is one cache-line-padded counter shard. 64 bytes covers the
// common cache-line size, so adjacent cells never false-share.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// pick selects a shard cell using the runtime's per-thread fast
// random source (math/rand/v2's top-level functions are lock-free),
// so concurrent writers spread across cells without any shared
// coordination state.
func pick(mask uint32) uint32 {
	if mask == 0 {
		return 0
	}
	return rand.Uint32() & mask
}

// Counter is a monotonically increasing sharded counter. Add is
// wait-free: one atomic add on a (usually) private cache line.
type Counter struct {
	cells []cell
	mask  uint32
}

func newCounter() *Counter {
	return &Counter{cells: make([]cell, numCells), mask: uint32(numCells - 1)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) {
	c.cells[pick(c.mask)].n.Add(n)
}

// Value sums the shard cells. Concurrent Adds may or may not be
// included — the sum is a consistent lower bound of completed Adds.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Gauge is a settable instantaneous value (in-flight slices, shard
// occupancy, frontier timestamps). A single atomic: gauges are
// written by Set/Add far less often than counters are bumped.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default latency buckets in seconds, spanning
// sub-millisecond store hits to multi-second retried HTTP calls.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// CountBuckets returns small integer-valued buckets (1, 2, 4, ... up
// to max) for histograms over counts, e.g. retries per request.
func CountBuckets(max int) []float64 {
	var out []float64
	for v := 1; v <= max; v *= 2 {
		out = append(out, float64(v))
	}
	return out
}

// ExpBuckets returns n exponentially spaced bucket bounds: start,
// start*factor, start*factor², ... Latency histograms that must
// resolve tail quantiles (p99.9) want constant *relative* resolution,
// which linear buckets cannot give across four decades. start must be
// positive and factor > 1; misuse is a programming error and panics.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// sumScale is a histogram sum's fixed point: nanounits, so a
// seconds-valued histogram sums whole nanoseconds and a cell holds
// about 292 years of them. Integer sums are exact, so a snapshot does
// not depend on which observations shared a cell (float addition is
// not associative), and one Add replaces a CAS loop.
const sumScale = 1e9

// histCell is one histogram shard: per-bucket counts plus the sum in
// nanounits. Each cell owns its own allocations, so concurrent
// observers on different cells never share lines.
type histCell struct {
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
}

// Histogram is a fixed-bucket sharded histogram. Observe is one
// binary search plus two atomic adds on a randomly selected cell.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds (le)
	cells  []histCell
	mask   uint32
}

func newHistogram(name string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram " + name + " buckets must be strictly increasing")
		}
	}
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		cells:  make([]histCell, numCells),
		mask:   uint32(numCells - 1),
	}
	for i := range h.cells {
		h.cells[i].counts = make([]atomic.Int64, len(bounds)+1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	c := &h.cells[pick(h.mask)]
	c.counts[i].Add(1)
	c.sum.Add(int64(math.Round(v * sumScale)))
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time view of a histogram. Buckets are
// per-bucket (non-cumulative) counts aligned with Bounds; the last
// entry is the +Inf bucket.
type HistSnapshot struct {
	Bounds  []float64
	Buckets []int64
	Count   int64
	Sum     float64
}

// Snapshot sums the shard cells into one view.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:  h.bounds,
		Buckets: make([]int64, len(h.bounds)+1),
	}
	var sum int64
	for ci := range h.cells {
		c := &h.cells[ci]
		for bi := range c.counts {
			s.Buckets[bi] += c.counts[bi].Load()
		}
		sum += c.sum.Load()
	}
	s.Sum = float64(sum) / sumScale
	for _, n := range s.Buckets {
		s.Count += n
	}
	return s
}

// Quantile estimates the q-quantile from the snapshot's bucket
// counts, with histogram_quantile's semantics: the target rank
// q*Count is located in the cumulative bucket counts, then linearly
// interpolated inside the spanning bucket (the first bucket
// interpolates up from zero). A rank landing in the +Inf bucket
// returns the highest finite bound — fixed buckets cannot resolve
// beyond their last edge, so callers needing a true maximum must
// track it separately. q is clamped to [0, 1]; an empty snapshot
// returns 0.
//
// Boundary behavior is exact: when every observation in the spanning
// bucket sits at its upper bound, interpolation at q=1 returns that
// bound itself, so quantiles of bound-valued data never overshoot.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(s.Bounds) {
				// +Inf bucket: the last finite bound is the best
				// statement the snapshot can make.
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += n
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Merge returns the element-wise sum of two snapshots of histograms
// that share bucket bounds (e.g. per-operation latency series being
// rolled up into an overall distribution). Mismatched bounds are a
// programming error and panic.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if !sameBuckets(s.Bounds, o.Bounds) {
		panic("obs: HistSnapshot.Merge wants identical bucket bounds")
	}
	out := HistSnapshot{
		Bounds:  s.Bounds,
		Buckets: make([]int64, len(s.Buckets)),
		Count:   s.Count + o.Count,
		Sum:     s.Sum + o.Sum,
	}
	copy(out.Buckets, s.Buckets)
	for i, n := range o.Buckets {
		out.Buckets[i] += n
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for ci := range h.cells {
		c := &h.cells[ci]
		for bi := range c.counts {
			total += c.counts[bi].Load()
		}
	}
	return total
}
