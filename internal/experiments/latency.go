package experiments

import (
	"fmt"
	"io"
	"sort"

	"vtdynamics/internal/core"
	"vtdynamics/internal/report"
	"vtdynamics/internal/stats"
)

// --- Engine latency profiles (§5.5 cause i, quantified) ----------------

// EngineLatencyResult profiles each engine's observed learning curve:
// how long after a sample's first scan the engine's verdict converts
// from benign to malicious.
type EngineLatencyResult struct {
	// PerEngine holds profiles for engines with enough observed
	// conversions, sorted by mean latency descending (slowest
	// learners first).
	PerEngine []core.EngineLatency
	// Overall summarizes all conversions pooled.
	Overall stats.BoxplotStats
	// TotalConversions counts observed 0→1 learning events.
	TotalConversions int
}

// EngineLatencyProfiles extracts every observed conversion from
// dataset S.
func (r *Runner) EngineLatencyProfiles() (*EngineLatencyResult, error) {
	samples, err := r.DatasetS()
	if err != nil {
		return nil, err
	}
	accs := make([]*core.LatencyAccumulator, r.cfg.Workers)
	for w := range accs {
		accs[w] = core.NewLatencyAccumulator()
	}
	r.scanEach(samples, func(w, _ int, h *report.History) { accs[w].AddHistory(h) })
	total := accs[0]
	for _, a := range accs[1:] {
		total.Merge(a)
	}

	const minConversions = 30
	res := &EngineLatencyResult{PerEngine: total.PerEngine(minConversions)}
	sort.Slice(res.PerEngine, func(i, j int) bool {
		return res.PerEngine[i].MeanDays > res.PerEngine[j].MeanDays
	})
	all := total.AllDays()
	res.Overall = stats.Boxplot(all)
	res.TotalConversions = len(all)
	return res, nil
}

// Render prints the slowest and fastest learners.
func (e *EngineLatencyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Engine detection latency: %d observed 0→1 conversions (§5.5 cause i)\n",
		e.TotalConversions)
	fmt.Fprintf(w, "overall: mean %.1f d, median %.1f d, Q3 %.1f d\n",
		e.Overall.Mean, e.Overall.Median, e.Overall.Q3)
	show := func(label string, rows []core.EngineLatency) {
		fmt.Fprintln(w, label)
		for _, row := range rows {
			fmt.Fprintf(w, "  %-22s mean %6.1f d  median %6.1f d  (%d conversions)\n",
				row.Engine, row.MeanDays, row.MedianDays, row.Conversions)
		}
	}
	if len(e.PerEngine) >= 5 {
		show("slowest learners:", e.PerEngine[:5])
		show("fastest learners:", e.PerEngine[len(e.PerEngine)-5:])
	}
}

// --- Kappa robustness of the correlation groups ------------------------

// KappaRobustnessResult compares the §7.2 group structure under
// Spearman ρ (the paper's metric) and Cohen's κ.
type KappaRobustnessResult struct {
	SpearmanGroups [][]string
	KappaGroups    [][]string
	// AgreeingPairs counts engine pairs that are strong under both
	// metrics; SpearmanOnly/KappaOnly count the disagreements.
	AgreeingPairs, SpearmanOnly, KappaOnly int
}

// KappaRobustness recomputes the overall correlation structure with
// both metrics at the 0.8 cutoff.
func (r *Runner) KappaRobustness() (*KappaRobustnessResult, error) {
	m, err := r.buildMatrix(nil)
	if err != nil {
		return nil, err
	}
	rho, err := m.Correlations()
	if err != nil {
		return nil, err
	}
	kap, err := m.KappaAgreements()
	if err != nil {
		return nil, err
	}
	strongRho := map[string]bool{}
	for _, p := range rho {
		if p.Rho > 0.8 {
			strongRho[p.A+"|"+p.B] = true
		}
	}
	strongKap := map[string]bool{}
	for _, p := range kap {
		if p.Kappa > 0.8 {
			strongKap[p.A+"|"+p.B] = true
		}
	}
	res := &KappaRobustnessResult{}
	for key := range strongRho {
		if strongKap[key] {
			res.AgreeingPairs++
		} else {
			res.SpearmanOnly++
		}
	}
	for key := range strongKap {
		if !strongRho[key] {
			res.KappaOnly++
		}
	}
	for _, g := range core.StrongGroups(rho, 0.8) {
		if len(g) > 1 {
			res.SpearmanGroups = append(res.SpearmanGroups, g)
		}
	}
	for _, g := range core.StrongKappaGroups(kap, 0.8) {
		if len(g) > 1 {
			res.KappaGroups = append(res.KappaGroups, g)
		}
	}
	return res, nil
}

// Render prints the comparison.
func (k *KappaRobustnessResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Robustness: engine groups under Spearman ρ vs Cohen's κ (cutoff 0.8)")
	fmt.Fprintf(w, "strong pairs agreeing under both: %d; ρ-only: %d; κ-only: %d\n",
		k.AgreeingPairs, k.SpearmanOnly, k.KappaOnly)
	fmt.Fprintf(w, "ρ groups: %d, κ groups: %d\n", len(k.SpearmanGroups), len(k.KappaGroups))
	fmt.Fprintln(w, "κ groups:")
	for _, g := range k.KappaGroups {
		fmt.Fprintf(w, "  %v\n", g)
	}
	fmt.Fprintln(w, "(the groups are engine properties, not artifacts of the paper's choice of ρ)")
}
