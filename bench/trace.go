package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vtdynamics/internal/feed"
	"vtdynamics/internal/report"
)

// A span is one call into one layer: which layer, when, which span
// caused it and which request (window, Get, arrival) it belongs to.
// Times are nanoseconds since the tracer was made.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // span id, 0 = none
	Req    int    `json:"req"`
}

// tracer keeps every span of a traced pass in memory; the harness
// writes them out when the workload ends. A nil tracer records
// nothing, so call sites need no branch of their own.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (index + 1).
func (t *tracer) start(name string, parent, req int) int {
	return t.startAt(name, parent, req, time.Now())
}

// startAt opens a span that began at an instant the caller fixed, such
// as an open-loop arrival's scheduled time.
func (t *tracer) startAt(name string, parent, req int, at time.Time) int {
	if t == nil {
		return 0
	}
	ns := at.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: ns, Parent: parent, Req: req})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	ns := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = ns
	t.mu.Unlock()
}

// interval records a span whose both ends the caller measured.
func (t *tracer) interval(name string, parent, req int, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  from.Sub(t.epoch).Nanoseconds(),
		End:    to.Sub(t.epoch).Nanoseconds(),
		Parent: parent,
		Req:    req,
	})
	t.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"` // sum of span durations
	Self  float64 `json:"self_s"`  // total minus what child spans cover
}

func (l layerTime) total() float64 { return l.Total }
func (l layerTime) self() float64  { return l.Self }
func (l layerTime) calls() float64 { return float64(l.Calls) }

// selfTimes folds spans into per-layer totals. A span's self time is
// its duration minus the union of its children's intervals: the
// collector's fetches overlap each other and its commits, so summing
// child durations would subtract the same instant twice.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Calls++
		lt.Total += float64(dur) / 1e9
		lt.Self += float64(dur-covered(children[i+1], s.Start, s.End)) / 1e9
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// unattributed is the share of the harness's timed regions (spans
// named bench.*) that no layer span accounts for.
func unattributed(lt map[string]layerTime) float64 {
	var total, self float64
	for name, t := range lt {
		if strings.HasPrefix(name, "bench.") {
			total += t.Total
			self += t.Self
		}
	}
	if total == 0 {
		return 0
	}
	return self / total
}

// spanCtx carries the calling span, its request id and, for API
// calls, the operation down a call chain that takes a context
// (feed.Source, vtclient, http).
type spanCtx struct {
	parent, req int
	op          string
}

type spanKey struct{}

func withSpan(ctx context.Context, parent, req int, op string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanCtx{parent, req, op})
}

func spanOf(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(spanKey{}).(spanCtx)
	return sc
}

// Headers that carry the calling span across the loopback connection.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
	hdrOp   = "X-Bench-Op"
)

// spanTransport records one http.roundtrip span per attempt and tells
// the server side which span called it, for which operation.
type spanTransport struct {
	tr   *tracer
	next http.RoundTripper
}

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc := spanOf(r.Context())
	id := s.tr.start("http.roundtrip", sc.parent, sc.req)
	r.Header.Set(hdrSpan, strconv.Itoa(id))
	r.Header.Set(hdrReq, strconv.Itoa(sc.req))
	if sc.op != "" {
		r.Header.Set(hdrOp, sc.op)
	}
	resp, err := s.next.RoundTrip(r)
	s.tr.end(id)
	return resp, err
}

// countingWriter counts response bytes for vtapi.resp_bytes.
type countingWriter struct {
	http.ResponseWriter
	n *int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	*c.n += int64(n)
	return n, err
}

// spanHandler records one span per served request under the client
// span named in the request headers: name, or name.<op> when the
// client named an operation.
type spanHandler struct {
	tr    *tracer
	name  string
	next  http.Handler
	mu    sync.Mutex
	bytes int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	req, _ := strconv.Atoi(r.Header.Get(hdrReq))
	name := h.name
	if op := r.Header.Get(hdrOp); op != "" {
		name += "." + op
	}
	id := h.tr.start(name, parent, req)
	var n int64
	h.next.ServeHTTP(countingWriter{w, &n}, r)
	h.tr.end(id)
	h.mu.Lock()
	h.bytes += n
	h.mu.Unlock()
}

// respBytes is how many response bytes the handler has written.
func (h *spanHandler) respBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bytes
}

// spanSource records a span around each feed fetch. The collector
// calls it from its worker goroutines, so the parent (the feed.run
// span) is fixed before Run starts; each window is its own request.
type spanSource struct {
	tr     *tracer
	name   string
	op     string // API operation behind the fetch, if it goes over HTTP
	parent int
	next   feed.Source
	mu     sync.Mutex
	seq    int
}

func (s *spanSource) FeedBetween(ctx context.Context, from, to time.Time) ([]report.Envelope, error) {
	s.mu.Lock()
	s.seq++
	req := s.seq
	s.mu.Unlock()
	id := s.tr.start(s.name, s.parent, req)
	envs, err := s.next.FeedBetween(withSpan(ctx, id, req, s.op), from, to)
	s.tr.end(id)
	return envs, err
}

// batchSyncer is what the collector wants of a store.
type batchSyncer interface {
	feed.BatchSink
	feed.Syncer
}

// spanSink records store.put_batch and store.sync spans. The
// collector commits from one goroutine, in window order.
type spanSink struct {
	tr     *tracer
	parent int
	next   batchSyncer
	seq    int
}

func (s *spanSink) Put(env report.Envelope) error { return s.next.Put(env) }

func (s *spanSink) PutBatch(envs []report.Envelope) error {
	s.seq++
	id := s.tr.start("store.put_batch", s.parent, s.seq)
	err := s.next.PutBatch(envs)
	s.tr.end(id)
	return err
}

func (s *spanSink) Sync() error {
	id := s.tr.start("store.sync", s.parent, s.seq)
	err := s.next.Sync()
	s.tr.end(id)
	return err
}

// spanCursor records a feed.cursor_save span per checkpoint.
type spanCursor struct {
	tr     *tracer
	parent int
	next   feed.Cursor
	seq    int
}

func (c *spanCursor) Load() (time.Time, bool, error) { return c.next.Load() }

func (c *spanCursor) Save(frontier time.Time) error {
	c.seq++
	id := c.tr.start("feed.cursor_save", c.parent, c.seq)
	err := c.next.Save(frontier)
	c.tr.end(id)
	return err
}
