// Command vtquery inspects a collected store: one sample's scan
// history and dynamics summary, or — in range mode — a pushdown
// aggregation over a time window and predicate set.
//
// Usage:
//
//	vtquery -store ./vtdata -sha <sha256> [-t 5] [-timing]
//	vtquery -store ./vtdata -since 2021-05-01 [-until 2021-06-01] [-ftype "Win32 EXE,PDF"] [-sha <sha256>]
//
// The first form prints the sample's AV-Rank trajectory,
// stable/dynamic class, Δ, stabilization, per-threshold category, and
// the engines that flipped on it. -timing additionally reports the
// cold and hot Get latency: the first lookup seeks only the gzip
// blocks holding the sample (or falls back to a full partition scan
// when the store predates the block-index sidecars), the second is
// served from the decoded-history LRU cache.
//
// Range mode engages when any of -since, -until, or -ftype is given.
// The query runs on the store's pushdown scan engine: sidecar zone
// maps prune whole blocks before decompression and only the projected
// columns are decoded, so a narrow window over a large store touches
// a fraction of its bytes — the scan report at the end says exactly
// how much was pruned versus read. Timestamps accept RFC 3339 or
// plain dates (2006-01-02, midnight UTC); -until is inclusive.
// -ftype is a comma-separated file-type set; -sha, optional here,
// restricts the window to one sample.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"vtdynamics/internal/core"
	"vtdynamics/internal/family"
	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
)

// options are the parsed command-line flags.
type options struct {
	dir    string
	sha    string
	t      int
	timing bool

	// Range mode (engaged when any of these is set): inclusive unix
	// bounds (0 = unbounded) and a comma-joined file-type set.
	since, until int64
	ftype        string
}

func (o *options) rangeMode() bool {
	return o.since != 0 || o.until != 0 || o.ftype != ""
}

// parseWhen accepts RFC 3339 or a plain UTC date.
func parseWhen(s string) (int64, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t.Unix(), nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("bad time %q: want RFC 3339 or 2006-01-02", s)
	}
	return t.Unix(), nil
}

// parseFlags parses and validates args (without the program name).
func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("vtquery", flag.ContinueOnError)
	var (
		dir    = fs.String("store", "./vtdata", "store directory")
		sha    = fs.String("sha", "", "sample sha256 (required unless -since/-until/-ftype)")
		t      = fs.Int("t", 5, "labeling threshold for the category/stabilization summary")
		timing = fs.Bool("timing", false, "report cold (disk) and hot (cached) lookup latency")
		since  = fs.String("since", "", "range mode: keep scans at or after this time (RFC 3339 or 2006-01-02)")
		until  = fs.String("until", "", "range mode: keep scans at or before this time (inclusive)")
		ftype  = fs.String("ftype", "", "range mode: comma-separated file types to keep")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := &options{dir: *dir, sha: *sha, t: *t, timing: *timing, ftype: *ftype}
	var err error
	if *since != "" {
		if opts.since, err = parseWhen(*since); err != nil {
			return nil, fmt.Errorf("-since: %w", err)
		}
	}
	if *until != "" {
		if opts.until, err = parseWhen(*until); err != nil {
			return nil, fmt.Errorf("-until: %w", err)
		}
	}
	if opts.since != 0 && opts.until != 0 && opts.until < opts.since {
		return nil, fmt.Errorf("-until %s is before -since %s", *until, *since)
	}
	if !opts.rangeMode() && opts.sha == "" {
		return nil, fmt.Errorf("-sha is required (or use -since/-until/-ftype for a range query)")
	}
	if *t < 1 {
		return nil, fmt.Errorf("bad -t %d: want >= 1", *t)
	}
	return opts, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, so both modes
// are testable end to end.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "vtquery:", err)
		return 1
	}

	st, err := store.Open(opts.dir)
	if err != nil {
		fmt.Fprintln(stderr, "vtquery:", err)
		return 1
	}
	if opts.rangeMode() {
		if err := runRange(st, opts, stdout); err != nil {
			fmt.Fprintln(stderr, "vtquery:", err)
			return 1
		}
		return 0
	}
	if err := runSample(st, opts, stdout); err != nil {
		fmt.Fprintln(stderr, "vtquery:", err)
		return 1
	}
	return 0
}

// runRange executes the pushdown aggregation and prints the window
// summary plus the scan's pruning report.
func runRange(st *store.Store, opts *options, stdout io.Writer) error {
	q := store.Query{
		Since: opts.since,
		Until: opts.until,
		Cols:  store.ColFT | store.ColTime,
	}
	if opts.ftype != "" {
		for _, ft := range strings.Split(opts.ftype, ",") {
			q.FileTypes = append(q.FileTypes, strings.TrimSpace(ft))
		}
	}
	if opts.sha != "" {
		q.SHAs = []string{opts.sha}
	}
	var (
		group store.GroupCountByType
		span  store.FirstLastAgg
	)
	stats, err := st.Scan(q, &store.MultiAgg{Aggs: []store.Agg{&group, &span}})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "range query: %s\n", describeQuery(opts))
	fmt.Fprintf(stdout, "matched %d scans", stats.Rows)
	if span.Rows > 0 {
		fmt.Fprintf(stdout, " from %s to %s",
			time.Unix(span.First, 0).UTC().Format("2006-01-02 15:04"),
			time.Unix(span.Last, 0).UTC().Format("2006-01-02 15:04"))
	}
	fmt.Fprintln(stdout)
	types := make([]string, 0, len(group.Counts))
	for ft := range group.Counts {
		types = append(types, ft)
	}
	sort.Slice(types, func(i, j int) bool {
		if group.Counts[types[i]] != group.Counts[types[j]] {
			return group.Counts[types[i]] > group.Counts[types[j]]
		}
		return types[i] < types[j]
	})
	fmt.Fprintf(stdout, "%-22s %10s\n", "file type", "scans")
	for _, ft := range types {
		name := ft
		if name == "" {
			name = "(none)"
		}
		fmt.Fprintf(stdout, "%-22s %10d\n", name, group.Counts[ft])
	}
	fmt.Fprintf(stdout, "scan: %d/%d blocks pruned (%s), %d scanned, %d KiB gunzipped, %d column segments skipped\n",
		stats.PrunedTotal(), stats.Blocks, describePruned(stats),
		stats.Scanned, stats.CompressedBytes/1024, stats.ColumnsSkipped)
	return nil
}

func describeQuery(opts *options) string {
	var parts []string
	if opts.since != 0 {
		parts = append(parts, "since "+time.Unix(opts.since, 0).UTC().Format("2006-01-02 15:04"))
	}
	if opts.until != 0 {
		parts = append(parts, "until "+time.Unix(opts.until, 0).UTC().Format("2006-01-02 15:04"))
	}
	if opts.ftype != "" {
		parts = append(parts, "ftype "+opts.ftype)
	}
	if opts.sha != "" {
		parts = append(parts, "sha "+opts.sha)
	}
	if len(parts) == 0 {
		return "(all rows)"
	}
	return strings.Join(parts, ", ")
}

func describePruned(stats store.ScanStats) string {
	if stats.PrunedTotal() == 0 {
		return "none"
	}
	reasons := make([]string, 0, len(stats.Pruned))
	for r := range stats.Pruned {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	parts := make([]string, 0, len(reasons))
	for _, r := range reasons {
		parts = append(parts, fmt.Sprintf("%s %d", r, stats.Pruned[r]))
	}
	return strings.Join(parts, ", ")
}

// runSample prints one sample's history and dynamics summary.
func runSample(st *store.Store, opts *options, stdout io.Writer) error {
	coldStart := time.Now()
	h, err := st.Get(opts.sha)
	cold := time.Since(coldStart)
	if err != nil {
		return err
	}
	if opts.timing {
		hotStart := time.Now()
		if _, err := st.Get(opts.sha); err != nil {
			return err
		}
		hot := time.Since(hotStart)
		fmt.Fprintf(stdout, "lookup: cold %v (block index), hot %v (cache)\n", cold, hot)
	}

	fmt.Fprintf(stdout, "sample %s\n", h.Meta.SHA256)
	fmt.Fprintf(stdout, "  type %s, size %d, times_submitted %d\n",
		h.Meta.FileType, h.Meta.Size, h.Meta.TimesSubmitted)
	fmt.Fprintf(stdout, "  first submission %s\n", h.Meta.FirstSubmissionDate.Format("2006-01-02 15:04"))

	series := core.FromHistory(h)
	fmt.Fprintf(stdout, "  scans: %d\n", series.Len())
	for i, r := range h.Reports {
		fmt.Fprintf(stdout, "    %2d  %s  AV-Rank %3d / %d engines\n",
			i+1, r.AnalysisDate.Format("2006-01-02 15:04"), r.AVRank, r.EnginesTotal)
	}

	// Family label from the last scan's detection strings (§3.1's
	// AVClass practice).
	last := h.Reports[len(h.Reports)-1]
	var labels []string
	for _, er := range last.Results {
		if er.Verdict == report.Malicious {
			labels = append(labels, er.Label)
		}
	}
	if v, ok := family.Label(labels, 2); ok {
		fmt.Fprintf(stdout, "  family: %s (%d engines agree)\n", v.Family, v.Engines)
	} else {
		fmt.Fprintln(stdout, "  family: (none / singleton)")
	}

	sum := core.Summarize(h, opts.t)
	fmt.Fprintf(stdout, "  class: %s (Δ = %d, final rank %d, span %.1f d)\n",
		sum.Class, sum.Delta, sum.FinalRank, sum.Span.Hours()/24)
	if series.Len() >= 2 {
		fmt.Fprintf(stdout, "  category at t=%d: %s\n", opts.t, sum.Category)
		if sum.RankStable.Stable {
			fmt.Fprintf(stdout, "  AV-Rank stabilized at scan %d (%.1f days after first scan)\n",
				sum.RankStable.Index+1, sum.RankStable.TimeToStability.Hours()/24)
		} else {
			fmt.Fprintln(stdout, "  AV-Rank not yet stable")
		}
		if sum.LabelStable.Stable {
			fmt.Fprintf(stdout, "  label (t=%d) stabilized at scan %d\n", opts.t, sum.LabelStable.Index+1)
		} else {
			fmt.Fprintf(stdout, "  label (t=%d) not yet stable\n", opts.t)
		}
		fmt.Fprintf(stdout, "  engine flips: %d up, %d down across %d engines\n",
			sum.Flips.Up, sum.Flips.Down, sum.FlippingEngines)
		// Engines that flipped on this sample.
		type flip struct {
			engine string
			counts core.FlipCounts
		}
		var flips []flip
		seen := map[string]bool{}
		for _, r := range h.Reports {
			for _, er := range r.Results {
				if seen[er.Engine] {
					continue
				}
				seen[er.Engine] = true
				fc := core.CountFlips(core.ExtractEngineSeries(h, er.Engine))
				if fc.Flips() > 0 {
					flips = append(flips, flip{er.Engine, fc})
				}
			}
		}
		sort.Slice(flips, func(i, j int) bool {
			if flips[i].counts.Flips() != flips[j].counts.Flips() {
				return flips[i].counts.Flips() > flips[j].counts.Flips()
			}
			return flips[i].engine < flips[j].engine
		})
		fmt.Fprintf(stdout, "  engines that flipped: %d\n", len(flips))
		for i, f := range flips {
			if i == 15 {
				fmt.Fprintf(stdout, "    ... %d more\n", len(flips)-15)
				break
			}
			fmt.Fprintf(stdout, "    %-22s 0→1 ×%d, 1→0 ×%d\n", f.engine, f.counts.Up, f.counts.Down)
		}
	}
	return nil
}
