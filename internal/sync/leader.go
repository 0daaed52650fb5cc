package sync

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
)

// Default batch bounds for one /blocks response. A follower can ask
// for less; the leader never returns more.
const (
	DefaultBatchBlocks = 64
	DefaultBatchBytes  = 32 << 20
)

// Leader serves a live store's replication feed over HTTP:
//
//	GET /sync/v1/manifest                       leader frontier + snapshot hashes
//	GET /sync/v1/blocks?month=M&seq=N[&max=K][&max_bytes=B]
//	                                            block frames from seq N on
//	GET /sync/v1/samples                        samples snapshot bytes
//	GET /sync/v1/stats                          stats snapshot bytes
//
// Blocks are immutable once committed, so every /blocks response
// stays valid forever; only the manifest moves. The store may keep
// ingesting while the leader serves — commitBlockLocked publishes a
// block's index entry only after its bytes are on disk.
//
// Manifests list sealed blocks only, while the samples and stats
// snapshots are the store's live ones, so between publishes a follower
// can hold snapshots that run ahead of its blocks. The store's owner
// publishes with store.Flush: it seals every pending row (the store
// stays open for Puts), after which blocks and snapshots describe the
// same rows. store.Sync does not publish — it journals pending rows
// for crash recovery and cuts nothing — and a store reopened over a
// killed session's journal has those rows pending again until a Flush.
type Leader struct {
	st  *store.Store
	mux *http.ServeMux

	requests     func(endpoint string) *obs.Counter
	blocksServed *obs.Counter
	bytesServed  *obs.Counter
}

// NewLeader wraps st. Metrics go to reg (nil = process default).
func NewLeader(st *store.Store, reg *obs.Registry) *Leader {
	if reg == nil {
		reg = obs.Default()
	}
	l := &Leader{
		st: st,
		requests: func(endpoint string) *obs.Counter {
			return reg.Counter("sync_leader_requests_total", "endpoint", endpoint)
		},
		blocksServed: reg.Counter("sync_leader_blocks_served_total"),
		bytesServed:  reg.Counter("sync_leader_bytes_served_total"),
	}
	l.mux = http.NewServeMux()
	l.mux.HandleFunc("/sync/v1/manifest", l.handleManifest)
	l.mux.HandleFunc("/sync/v1/blocks", l.handleBlocks)
	l.mux.HandleFunc("/sync/v1/samples", l.handleSamples)
	l.mux.HandleFunc("/sync/v1/stats", l.handleStats)
	return l
}

// ServeHTTP implements http.Handler.
func (l *Leader) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mux.ServeHTTP(w, r)
}

// manifest snapshots the leader state. The snapshot hashes are
// recomputed per call — O(total samples), which at manifest-poll
// cadence is noise next to block transfer.
func (l *Leader) manifest() (Manifest, error) {
	state := l.st.ReplState()
	months := make([]MonthCursor, 0, len(state))
	for month, ms := range state {
		months = append(months, MonthCursor{Month: month, Blocks: ms.Blocks, Size: ms.FileSize})
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Month < months[j].Month })

	h := sha256.New()
	cw := &countWriter{w: h}
	if err := l.st.WriteSamplesSnapshot(cw); err != nil {
		return Manifest{}, err
	}
	m := Manifest{
		Months:      months,
		SamplesSize: cw.n,
		SamplesSHA:  hex.EncodeToString(h.Sum(nil)),
	}
	stats, err := l.st.StatsJSON()
	if err != nil {
		return Manifest{}, err
	}
	sum := sha256.Sum256(stats)
	m.StatsSize = int64(len(stats))
	m.StatsSHA = hex.EncodeToString(sum[:])
	return m, nil
}

type countWriter struct {
	w interface{ Write([]byte) (int, error) }
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (l *Leader) handleManifest(w http.ResponseWriter, r *http.Request) {
	l.requests("manifest").Inc()
	m, err := l.manifest()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(EncodeManifest(m))
}

// handleBlocks streams frames starting at ?seq. A seq beyond the
// leader's frontier is a divergent follower: 409, which the follower
// surfaces as ErrStaleCursor rather than retrying forever.
func (l *Leader) handleBlocks(w http.ResponseWriter, r *http.Request) {
	l.requests("blocks").Inc()
	q := r.URL.Query()
	month := q.Get("month")
	if !store.ValidMonthKey(month) {
		http.Error(w, "bad month", http.StatusBadRequest)
		return
	}
	seq, err := strconv.Atoi(q.Get("seq"))
	if err != nil || seq < 0 {
		http.Error(w, "bad seq", http.StatusBadRequest)
		return
	}
	maxBlocks := DefaultBatchBlocks
	if s := q.Get("max"); s != "" {
		if maxBlocks, err = strconv.Atoi(s); err != nil || maxBlocks < 1 || maxBlocks > DefaultBatchBlocks {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
	}
	maxBytes := int64(DefaultBatchBytes)
	if s := q.Get("max_bytes"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 1 || v > DefaultBatchBytes {
			http.Error(w, "bad max_bytes", http.StatusBadRequest)
			return
		}
		maxBytes = v
	}

	refs, err := l.st.BlocksSince(month, seq, maxBlocks, maxBytes)
	switch {
	case errors.Is(err, store.ErrUnknownBlock):
		http.Error(w, "cursor ahead of leader", http.StatusConflict)
		return
	case errors.Is(err, store.ErrUnknownMonth):
		http.Error(w, "unknown month", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	for _, ref := range refs {
		payload, err := l.st.ReadBlock(ref)
		if err != nil {
			// Mid-stream failure: the partial body will fail frame
			// decode or length checks on the follower, which retries.
			fmt.Fprintf(w, "sync: read block: %v", err)
			return
		}
		frame := EncodeBlockFrame(BlockFrame{
			Month: ref.Month, Seq: ref.Seq, Offset: ref.Offset, Len: ref.Len,
			Rows: ref.Rows, Raw: ref.Raw, Ver: ref.Ver, Payload: payload,
		})
		if _, err := w.Write(frame); err != nil {
			return
		}
		l.blocksServed.Inc()
		l.bytesServed.Add(int64(len(payload)))
	}
}

func (l *Leader) handleSamples(w http.ResponseWriter, r *http.Request) {
	l.requests("samples").Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := l.st.WriteSamplesSnapshot(w); err != nil {
		// Headers are gone; the truncated body fails the follower's
		// hash check.
		return
	}
}

func (l *Leader) handleStats(w http.ResponseWriter, r *http.Request) {
	l.requests("stats").Inc()
	b, err := l.st.StatsJSON()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}
