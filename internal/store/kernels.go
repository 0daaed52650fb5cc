// Per-block aggregation kernels for the pushdown scan engine.
//
// A kernel is an Agg: it mints one Partial per scan job (one block),
// the workers feed matching RowViews into partials concurrently, and
// Scan folds the partials back in deterministic job order — month
// ascending, block sequence ascending, which is exactly
// row storage order. Kernels whose merge is commutative (counts,
// min/max) don't care; FlipCountAgg depends on that ordering.
//
// Partial states are pooled where the steady-state matters: the
// group-by partials reuse their maps across blocks (clear() keeps the
// buckets), so a scan's per-block kernel cycle settles at zero
// allocations per block — pinned by TestScanKernelAllocBudget.
package store

import "sync"

// MultiAgg fans every row into several kernels in one scan pass, so
// callers pay the block decode once however many aggregates they
// want. Merge order and determinism follow from Scan's ordered merge:
// each sub-agg sees its partials in the same job order it would see
// them running alone.
type MultiAgg struct {
	Aggs []Agg
}

type multiPartial struct{ ps []Partial }

func (a *MultiAgg) NewPartial() Partial {
	ps := make([]Partial, len(a.Aggs))
	for i, agg := range a.Aggs {
		ps[i] = agg.NewPartial()
	}
	return &multiPartial{ps: ps}
}

func (a *MultiAgg) Merge(p Partial) error {
	mp := p.(*multiPartial)
	for i, agg := range a.Aggs {
		if err := agg.Merge(mp.ps[i]); err != nil {
			return err
		}
	}
	return nil
}

func (p *multiPartial) Row(rv *RowView) error {
	for _, sub := range p.ps {
		if err := sub.Row(rv); err != nil {
			return err
		}
	}
	return nil
}

// CountAgg counts matching rows. Needs no projected columns.
type CountAgg struct {
	N int64
}

type countPartial struct{ n int64 }

func (p *countPartial) Row(*RowView) error {
	p.n++
	return nil
}

func (a *CountAgg) NewPartial() Partial { return &countPartial{} }

func (a *CountAgg) Merge(p Partial) error {
	a.N += p.(*countPartial).n
	return nil
}

// groupPartialPool recycles group-by partial maps across blocks;
// clear() keeps the buckets, so a warmed pool feeds the kernel cycle
// without allocating.
var groupPartialPool = sync.Pool{
	New: func() any { return &groupPartial{counts: make(map[string]int64)} },
}

type groupPartial struct {
	key    func(rv *RowView) string
	counts map[string]int64
}

func (p *groupPartial) Row(rv *RowView) error {
	p.counts[p.key(rv)]++
	return nil
}

// GroupCountByType tallies matching rows per file type. Needs ColFT.
type GroupCountByType struct {
	Counts map[string]int64
}

func (a *GroupCountByType) NewPartial() Partial {
	p := groupPartialPool.Get().(*groupPartial)
	p.key = ftKey
	return p
}

// ftKey is a named func so every partial shares one value (closures
// would allocate per partial).
func ftKey(rv *RowView) string { return rv.FT }

func (a *GroupCountByType) Merge(p Partial) error {
	gp := p.(*groupPartial)
	if a.Counts == nil {
		a.Counts = make(map[string]int64, len(gp.counts))
	}
	for k, v := range gp.counts {
		// Group keys are interned dictionary strings — safe to retain.
		a.Counts[k] += v
	}
	clear(gp.counts)
	gp.key = nil
	groupPartialPool.Put(gp)
	return nil
}

// EngineStats is one engine's tally across the scanned rows.
type EngineStats struct {
	Results   int64 // results carrying this engine
	Malicious int64 // of those, verdict Malicious
	Labeled   int64 // of those, non-empty label
}

// EngineAgg tallies per-engine result/malicious/labeled counts.
// Needs ColResults.
type EngineAgg struct {
	Engines map[string]EngineStats
}

type enginePartial struct {
	engines map[string]EngineStats
}

var enginePartialPool = sync.Pool{
	New: func() any { return &enginePartial{engines: make(map[string]EngineStats)} },
}

func (p *enginePartial) Row(rv *RowView) error {
	for i := range rv.Res {
		r := &rv.Res[i]
		st := p.engines[r.Eng]
		st.Results++
		if r.Ver == 1 {
			st.Malicious++
		}
		if r.Lab != "" {
			st.Labeled++
		}
		p.engines[r.Eng] = st
	}
	return nil
}

func (a *EngineAgg) NewPartial() Partial { return enginePartialPool.Get().(*enginePartial) }

func (a *EngineAgg) Merge(p Partial) error {
	ep := p.(*enginePartial)
	if a.Engines == nil {
		a.Engines = make(map[string]EngineStats, len(ep.engines))
	}
	for k, v := range ep.engines {
		st := a.Engines[k]
		st.Results += v.Results
		st.Malicious += v.Malicious
		st.Labeled += v.Labeled
		a.Engines[k] = st
	}
	clear(ep.engines)
	enginePartialPool.Put(ep)
	return nil
}

// FirstLastAgg tracks the earliest and latest analysis timestamp of
// the matching rows. Needs ColTime. Zero timestamps (rows without an
// analysis date) are ignored.
type FirstLastAgg struct {
	First, Last int64
	Rows        int64
}

type firstLastPartial struct {
	first, last int64
	rows        int64
}

func (p *firstLastPartial) Row(rv *RowView) error {
	if rv.At == 0 {
		return nil
	}
	if p.rows == 0 || rv.At < p.first {
		p.first = rv.At
	}
	if p.rows == 0 || rv.At > p.last {
		p.last = rv.At
	}
	p.rows++
	return nil
}

func (a *FirstLastAgg) NewPartial() Partial { return &firstLastPartial{} }

func (a *FirstLastAgg) Merge(p Partial) error {
	fp := p.(*firstLastPartial)
	if fp.rows == 0 {
		return nil
	}
	if a.Rows == 0 || fp.first < a.First {
		a.First = fp.first
	}
	if a.Rows == 0 || fp.last > a.Last {
		a.Last = fp.last
	}
	a.Rows += fp.rows
	return nil
}

// flipState is one (sample, engine) pair's verdict run: the first and
// last verdicts seen and the flips counted so far. Merging two states
// over an ordered split adds a flip when the boundary verdicts differ
// — associativity over ordered concatenation is what makes the kernel
// correct under Scan's deterministic job-order merge.
type flipState struct {
	first, last int8
	flips       int64
	seen        bool
}

// FlipCountAgg counts verdict flips per (sample, engine) pair — the
// label-dynamics census from the paper, as a pushdown kernel. Needs
// ColSHA and ColResults; rows must arrive in storage order, which
// Scan's ordered merge guarantees.
type FlipCountAgg struct {
	// Flips is the total number of verdict changes across all pairs.
	Flips int64
	// Pairs is the number of (sample, engine) pairs seen.
	Pairs int64
	// states survives across Merge calls; keys are sha+"\x00"+engine.
	states map[string]flipState
}

type flipPartial struct {
	states map[string]flipState
	keyBuf []byte
}

var flipPartialPool = sync.Pool{
	New: func() any { return &flipPartial{states: make(map[string]flipState)} },
}

func pairKey(buf []byte, sha, eng string) []byte {
	buf = append(buf[:0], sha...)
	buf = append(buf, 0)
	return append(buf, eng...)
}

func (p *flipPartial) Row(rv *RowView) error {
	for i := range rv.Res {
		r := &rv.Res[i]
		p.keyBuf = pairKey(p.keyBuf, rv.SHA, r.Eng)
		st, ok := p.states[string(p.keyBuf)] // lookup: no alloc
		if !ok {
			st = flipState{first: r.Ver, last: r.Ver, seen: true}
			p.states[string(p.keyBuf)] = st
			continue
		}
		if st.last != r.Ver {
			st.flips++
			st.last = r.Ver
		}
		p.states[string(p.keyBuf)] = st
	}
	return nil
}

func (a *FlipCountAgg) NewPartial() Partial { return flipPartialPool.Get().(*flipPartial) }

func (a *FlipCountAgg) Merge(p Partial) error {
	fp := p.(*flipPartial)
	if a.states == nil {
		a.states = make(map[string]flipState, len(fp.states))
	}
	for k, v := range fp.states {
		st, ok := a.states[k]
		if !ok {
			a.states[k] = v
			a.Pairs++
			a.Flips += v.flips
			continue
		}
		// Ordered concatenation: this partial's rows follow st's rows.
		a.Flips += v.flips
		if st.last != v.first {
			a.Flips++
			st.flips++ // keep per-pair count coherent
		}
		st.flips += v.flips
		st.last = v.last
		a.states[k] = st
	}
	clear(fp.states)
	flipPartialPool.Put(fp)
	return nil
}

// PairStates exposes the per-pair flip counts (for callers that want
// the distribution, not just the total).
func (a *FlipCountAgg) PairStates() map[string]flipState { return a.states }
