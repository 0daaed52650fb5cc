package sync

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"time"

	"vtdynamics/internal/durable"
	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
)

// Typed follower errors.
var (
	// ErrVerifyFailed wraps a block that decoded from the wire but
	// disagreed with its own payload under re-analysis.
	ErrVerifyFailed = errors.New("sync: block failed verification")
	// ErrRetriesExhausted marks a transport that never yielded a good
	// response within the attempt budget.
	ErrRetriesExhausted = errors.New("sync: retries exhausted")
)

// Follower pulls a leader's replication feed into a local store until
// the replica is byte-identical. It is resumable at every step: the
// store's own sidecars are the authoritative frontier (a block is
// either durably applied or absent), and a small wire-format cursor
// file mirrors that frontier for observability and fast reconcile. A
// truncated or lying cursor file is harmless — Reconcile falls back
// to store-derived state, at worst re-fetching a batch.
type Follower struct {
	// Base is the leader URL prefix, e.g. "http://host:port".
	Base string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// CursorPath, when set, is where the durable cursor file lives.
	CursorPath string
	// MaxAttempts bounds retries per request (0 = 8). Transient 500s
	// and 503s from the leader consume attempts; Retry-After is
	// honored up to a second.
	MaxAttempts int
	// BatchBlocks/BatchBytes bound one pull (0 = leader defaults).
	BatchBlocks int
	BatchBytes  int64

	st *store.Store

	pulled        *obs.Counter
	applied       *obs.Counter
	appliedBytes  *obs.Counter
	verifyFails   *obs.Counter
	retries       *obs.Counter
	snapApplied   *obs.Counter
	cursorLag     *obs.Gauge
	backfillLeft  *obs.Gauge
	cursorRecover *obs.Counter
}

// Stats summarizes one CatchUp.
type Stats struct {
	Rounds        int
	BlocksApplied int
	BytesApplied  int64
	Retries       int
	VerifyFails   int
}

// NewFollower builds a follower applying into st. Metrics go to reg
// (nil = process default). The store must be open without writers —
// a replica ingests only through ApplyBlocks.
func NewFollower(st *store.Store, base string, reg *obs.Registry) *Follower {
	if reg == nil {
		reg = obs.Default()
	}
	return &Follower{
		Base:          base,
		st:            st,
		pulled:        reg.Counter("sync_blocks_pulled_total"),
		applied:       reg.Counter("sync_blocks_applied_total"),
		appliedBytes:  reg.Counter("sync_bytes_applied_total"),
		verifyFails:   reg.Counter("sync_verify_failures_total"),
		retries:       reg.Counter("sync_retries_total"),
		snapApplied:   reg.Counter("sync_snapshots_applied_total"),
		cursorLag:     reg.Gauge("sync_cursor_lag_blocks"),
		backfillLeft:  reg.Gauge("sync_backfill_remaining_bytes"),
		cursorRecover: reg.Counter("sync_cursor_recoveries_total"),
	}
}

// Reconcile returns the effective frontier: the store's own state,
// which is authoritative because ApplyBlocks only indexes durable
// bytes. The cursor file is decoded purely to detect disagreement —
// a torn file or one ahead of the store (a crash rolled the store
// back, or RepairDir truncated a torn tail) increments
// sync_cursor_recoveries_total and is otherwise ignored.
func (f *Follower) Reconcile() Cursor {
	state := f.st.ReplState()
	months := make([]MonthCursor, 0, len(state))
	for month, ms := range state {
		months = append(months, MonthCursor{Month: month, Blocks: ms.Blocks, Size: ms.FileSize})
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Month < months[j].Month })
	effective := Cursor{Months: months}

	if f.CursorPath == "" {
		return effective
	}
	raw, err := os.ReadFile(f.CursorPath)
	if err != nil {
		if !os.IsNotExist(err) {
			f.cursorRecover.Inc()
		}
		return effective
	}
	saved, err := DecodeCursor(raw)
	if err != nil {
		f.cursorRecover.Inc()
		return effective
	}
	have := make(map[string]MonthCursor, len(effective.Months))
	for _, mc := range effective.Months {
		have[mc.Month] = mc
	}
	for _, mc := range saved.Months {
		if got := have[mc.Month]; mc.Blocks != got.Blocks || mc.Size != got.Size {
			f.cursorRecover.Inc()
			return effective
		}
	}
	return effective
}

// saveCursor persists the current store frontier through
// durable.WriteFile, the temp file fsynced and the directory not. Only
// the store's own state decides where a follower resumes (Reconcile),
// so the cursor is a cross-check: its loss is never fatal, and write
// errors surface but do not roll back applied blocks.
func (f *Follower) saveCursor() error {
	if f.CursorPath == "" {
		return nil
	}
	if err := durable.WriteFile(f.CursorPath, true, durable.Bytes(EncodeCursor(f.Reconcile()))); err != nil {
		return fmt.Errorf("sync: cursor: %w", err)
	}
	return nil
}

// get fetches one URL with bounded retries on transient failures.
func (f *Follower) get(ctx context.Context, url string, stats *Stats) ([]byte, error) {
	client := f.Client
	if client == nil {
		client = http.DefaultClient
	}
	attempts := f.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			f.retries.Inc()
			stats.Retries++
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, fmt.Errorf("sync: %w", err)
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue
		}
		body, readErr := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK && readErr == nil:
			return body, nil
		case resp.StatusCode == http.StatusConflict:
			return nil, ErrStaleCursor
		case resp.StatusCode == http.StatusInternalServerError,
			resp.StatusCode == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("leader status %d", resp.StatusCode)
			if wait := retryAfter(resp); wait > 0 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(wait):
				}
			}
		case readErr != nil:
			lastErr = readErr
		default:
			// Non-transient status: do not burn the budget.
			return nil, fmt.Errorf("sync: leader status %d for %s", resp.StatusCode, url)
		}
	}
	return nil, fmt.Errorf("%w: %s: %v", ErrRetriesExhausted, url, lastErr)
}

// retryAfter parses the header, capped so an injected fault cannot
// stall a campaign.
func retryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > time.Second {
		d = time.Second
	}
	return d
}

// Manifest fetches and decodes the leader manifest.
func (f *Follower) Manifest(ctx context.Context) (Manifest, error) {
	var stats Stats
	body, err := f.get(ctx, f.Base+"/sync/v1/manifest", &stats)
	if err != nil {
		return Manifest{}, err
	}
	return DecodeManifest(body)
}

// pullMonth advances one month to the target frontier, saving the
// cursor after every applied batch.
func (f *Follower) pullMonth(ctx context.Context, target MonthCursor, have store.MonthState, stats *Stats) error {
	seq := have.Blocks
	for seq < target.Blocks {
		url := fmt.Sprintf("%s/sync/v1/blocks?month=%s&seq=%d", f.Base, target.Month, seq)
		if f.BatchBlocks > 0 {
			url += "&max=" + strconv.Itoa(f.BatchBlocks)
		}
		if f.BatchBytes > 0 {
			url += "&max_bytes=" + strconv.FormatInt(f.BatchBytes, 10)
		}
		body, err := f.get(ctx, url, stats)
		if err != nil {
			return err
		}
		refs := make([]store.ReplBlock, 0, 8)
		data := make([][]byte, 0, 8)
		for len(body) > 0 {
			frame, rest, err := DecodeBlockFrame(body)
			if err != nil {
				// A torn mid-stream body decodes partially; apply what
				// arrived whole and re-pull the rest.
				if len(refs) > 0 {
					break
				}
				return fmt.Errorf("sync: month %s seq %d: %w", target.Month, seq, err)
			}
			refs = append(refs, frame.Ref())
			data = append(data, frame.Payload)
			body = rest
		}
		if len(refs) == 0 {
			return fmt.Errorf("sync: leader returned no blocks for %s at seq %d", target.Month, seq)
		}
		f.pulled.Add(int64(len(refs)))
		if err := f.st.ApplyBlocks(target.Month, refs, data); err != nil {
			f.verifyFails.Inc()
			stats.VerifyFails++
			return fmt.Errorf("%w: month %s seq %d: %v", ErrVerifyFailed, target.Month, seq, err)
		}
		for _, ref := range refs {
			f.appliedBytes.Add(ref.Len)
			stats.BytesApplied += ref.Len
		}
		f.applied.Add(int64(len(refs)))
		stats.BlocksApplied += len(refs)
		seq += len(refs)
		if err := f.saveCursor(); err != nil {
			return err
		}
	}
	return nil
}

// lag computes how many leader blocks (and partition bytes) the
// follower is missing under the given manifest.
func lag(m Manifest, state map[string]store.MonthState) (blocks int, bytes int64) {
	for _, mc := range m.Months {
		have := state[mc.Month]
		if mc.Blocks > have.Blocks {
			blocks += mc.Blocks - have.Blocks
		}
		if mc.Size > have.FileSize {
			bytes += mc.Size - have.FileSize
		}
	}
	return blocks, bytes
}

// CatchUp pulls until the replica matches a stable leader manifest:
// blocks first, then the two metadata snapshots, each applied only
// after its SHA-256 matches the manifest (verify-then-apply end to
// end). If the leader keeps moving, CatchUp keeps looping; against a
// quiescent leader it terminates with a byte-identical replica.
func (f *Follower) CatchUp(ctx context.Context) (Stats, error) {
	var stats Stats
	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Rounds++
		m, err := f.Manifest(ctx)
		if err != nil {
			return stats, err
		}
		state := f.st.ReplState()
		lagBlocks, lagBytes := lag(m, state)
		f.cursorLag.Set(int64(lagBlocks))
		f.backfillLeft.Set(lagBytes)

		// Divergence check: a replica ahead of its leader is not a
		// replica of this leader.
		for _, mc := range f.Reconcile().Months {
			want := -1
			for _, lm := range m.Months {
				if lm.Month == mc.Month {
					want = lm.Blocks
					break
				}
			}
			if want < mc.Blocks {
				return stats, fmt.Errorf("%w: month %s at %d, leader has %d", ErrStaleCursor, mc.Month, mc.Blocks, want)
			}
		}

		for _, mc := range m.Months {
			if err := f.pullMonth(ctx, mc, state[mc.Month], &stats); err != nil {
				return stats, err
			}
		}
		// Persist sidecars before judging convergence, so a kill here
		// resumes from the advanced frontier.
		if err := f.st.Sync(); err != nil {
			return stats, err
		}

		samples, err := f.get(ctx, f.Base+"/sync/v1/samples", &stats)
		if err != nil {
			return stats, err
		}
		statsBody, err := f.get(ctx, f.Base+"/sync/v1/stats", &stats)
		if err != nil {
			return stats, err
		}
		if hashHex(samples) != m.SamplesSHA || hashHex(statsBody) != m.StatsSHA {
			// The leader moved between manifest and snapshot fetch;
			// take a fresh manifest and go again.
			continue
		}
		m2, err := f.Manifest(ctx)
		if err != nil {
			return stats, err
		}
		if !manifestEqual(m, m2) {
			continue
		}
		if err := f.st.ApplySamplesSnapshot(samples); err != nil {
			f.verifyFails.Inc()
			stats.VerifyFails++
			return stats, fmt.Errorf("%w: samples snapshot: %v", ErrVerifyFailed, err)
		}
		if err := f.st.ApplyStatsSnapshot(statsBody); err != nil {
			f.verifyFails.Inc()
			stats.VerifyFails++
			return stats, fmt.Errorf("%w: stats snapshot: %v", ErrVerifyFailed, err)
		}
		f.snapApplied.Add(2)
		f.cursorLag.Set(0)
		f.backfillLeft.Set(0)
		if err := f.saveCursor(); err != nil {
			return stats, err
		}
		return stats, nil
	}
}

func hashHex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func manifestEqual(a, b Manifest) bool {
	if len(a.Months) != len(b.Months) ||
		a.SamplesSHA != b.SamplesSHA || a.StatsSHA != b.StatsSHA ||
		a.SamplesSize != b.SamplesSize || a.StatsSize != b.StatsSize {
		return false
	}
	for i := range a.Months {
		if a.Months[i] != b.Months[i] {
			return false
		}
	}
	return true
}
