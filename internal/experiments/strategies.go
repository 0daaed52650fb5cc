package experiments

import (
	"fmt"
	"io"

	"vtdynamics/internal/labeling"
	"vtdynamics/internal/report"
)

// §3.1 surveys how researchers collapse 70+ verdicts into one label:
// absolute thresholds (1, 2, 10), percentage thresholds (50%), and
// trusted-engine subsets. The paper's dynamics results imply these
// strategies differ in how exposed they are to label churn; this
// experiment quantifies that by replaying every strategy over the
// same dynamic histories and counting aggregated-label flips.

// StrategyRow is one strategy's stability outcome.
type StrategyRow struct {
	Name string
	// FlipRate is aggregated-label flips per sample.
	FlipRate float64
	// EverFlipped is the fraction of samples whose aggregated label
	// changed at least once — the user-visible inconsistency risk.
	EverFlipped float64
	// MaliciousShare is the fraction of final labels that are
	// malicious (context for comparing strategies' operating points).
	MaliciousShare float64
}

// StrategyStabilityResult compares aggregation strategies.
type StrategyStabilityResult struct {
	Rows    []StrategyRow
	Samples int
}

// trustedEngines is a plausible "high-reputation subset" of the
// roster, mirroring the selection practice in the surveyed papers.
var trustedEngines = []string{
	"Kaspersky", "Microsoft", "Symantec", "Sophos", "ESET-NOD32",
	"BitDefender", "McAfee", "TrendMicro", "Avira", "DrWeb",
}

// StrategyStability replays each aggregation strategy over dataset S.
func (r *Runner) StrategyStability() (*StrategyStabilityResult, error) {
	samples, err := r.DatasetS()
	if err != nil {
		return nil, err
	}
	aggs := []labeling.Aggregator{}
	for _, t := range []int{1, 2, 5, 10} {
		th, err := labeling.NewThreshold(t)
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, th)
	}
	pc, err := labeling.NewPercentage(0.5)
	if err != nil {
		return nil, err
	}
	aggs = append(aggs, pc)
	ts, err := labeling.NewTrustedSubset(trustedEngines, 2)
	if err != nil {
		return nil, err
	}
	aggs = append(aggs, ts)

	type acc struct {
		flips, everFlipped, malicious []int
		samples                       int
	}
	accs := make([]acc, r.cfg.Workers)
	for w := range accs {
		accs[w].flips = make([]int, len(aggs))
		accs[w].everFlipped = make([]int, len(aggs))
		accs[w].malicious = make([]int, len(aggs))
	}
	r.scanEach(samples, func(w, _ int, h *report.History) {
		a := &accs[w]
		a.samples++
		for j, agg := range aggs {
			labels := labeling.LabelHistory(agg, h)
			f := labeling.Flips(labels)
			a.flips[j] += f
			if f > 0 {
				a.everFlipped[j]++
			}
			if len(labels) > 0 && labels[len(labels)-1] {
				a.malicious[j]++
			}
		}
	})

	res := &StrategyStabilityResult{}
	totalFlips := make([]int, len(aggs))
	totalEver := make([]int, len(aggs))
	totalMal := make([]int, len(aggs))
	for _, a := range accs {
		res.Samples += a.samples
		for j := range aggs {
			totalFlips[j] += a.flips[j]
			totalEver[j] += a.everFlipped[j]
			totalMal[j] += a.malicious[j]
		}
	}
	for j, agg := range aggs {
		row := StrategyRow{Name: agg.Name()}
		if res.Samples > 0 {
			row.FlipRate = float64(totalFlips[j]) / float64(res.Samples)
			row.EverFlipped = float64(totalEver[j]) / float64(res.Samples)
			row.MaliciousShare = float64(totalMal[j]) / float64(res.Samples)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the comparison.
func (s *StrategyStabilityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Label-aggregation strategy stability over %d dynamic samples (§3.1 strategies)\n",
		s.Samples)
	tb := newTable(w, 26, 12, 14, 14)
	tb.row("strategy", "flips/sample", "ever flipped", "final malicious")
	for _, row := range s.Rows {
		tb.row(row.Name, fmt.Sprintf("%.3f", row.FlipRate),
			pct(row.EverFlipped), pct(row.MaliciousShare))
	}
	fmt.Fprintln(w, "(mid-range thresholds tolerate dynamics best — the paper's §5.4 conclusion)")
}
