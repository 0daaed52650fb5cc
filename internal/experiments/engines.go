package experiments

import (
	"fmt"
	"io"
	"sort"

	"vtdynamics/internal/core"
	"vtdynamics/internal/ftypes"
	"vtdynamics/internal/report"
)

// flipPass is one pass over dataset S: the per-(engine, type) flip
// matrix, plus the engine-scan entries it saw and how many of them
// were Undetected.
type flipPass struct {
	m                   *core.FlipMatrix
	entries, undetected int
}

// flipsOverS returns (cached) the flip pass over dataset S that
// Fig. 10, §7.1 and §5.5 all read.
func (r *Runner) flipsOverS() (*flipPass, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flipsS != nil {
		return r.flipsS, nil
	}
	if err := r.buildDatasetSLocked(); err != nil {
		return nil, err
	}
	accs := make([]flipPass, r.cfg.Workers)
	for w := range accs {
		accs[w].m = core.NewFlipMatrix()
	}
	r.scanEach(r.dynSamples, func(w, _ int, h *report.History) {
		a := &accs[w]
		a.m.AddHistory(h)
		for _, rep := range h.Reports {
			a.entries += len(rep.Results)
			for _, er := range rep.Results {
				if er.Verdict == report.Undetected {
					a.undetected++
				}
			}
		}
	})
	total := &accs[0]
	for _, a := range accs[1:] {
		total.m.Merge(a.m)
		total.entries += a.entries
		total.undetected += a.undetected
	}
	r.flipsS = total
	return total, nil
}

// --- Figure 10: flip ratio per engine × file type ---------------------

// FlipRatioCell is one heatmap cell.
type FlipRatioCell struct {
	Engine   string
	FileType string
	Ratio    float64
	Flips    int
}

// Figure10Result reproduces the flip-ratio heatmap.
type Figure10Result struct {
	Matrix *core.FlipMatrix
	// Highlights reproduces the paper's callouts.
	ArcabitELF float64 // paper: 25.78%
	ArcabitDEX float64 // paper: 0.05%
	// MostFlippy / LeastFlippy rank engines by overall flip ratio
	// (paper: Arcabit, F-Secure, Lionic flip-prone; Jiangmin, AhnLab
	// stable).
	MostFlippy  []FlipRatioCell
	LeastFlippy []FlipRatioCell
}

// Figure10FlipRatios builds the flip matrix and extracts the
// headline cells.
func (r *Runner) Figure10FlipRatios() (*Figure10Result, error) {
	p, err := r.flipsOverS()
	if err != nil {
		return nil, err
	}
	m := p.m
	res := &Figure10Result{Matrix: m}
	res.ArcabitELF = m.Cell("Arcabit", ftypes.ELFExe).Ratio()
	res.ArcabitDEX = m.Cell("Arcabit", ftypes.DEX).Ratio()

	type engRatio struct {
		name  string
		ratio float64
		flips int
	}
	var ratios []engRatio
	for _, eng := range m.Engines() {
		total := m.EngineTotal(eng)
		if total.Opportunities == 0 {
			continue
		}
		ratios = append(ratios, engRatio{eng, total.Ratio(), total.Flips()})
	}
	sort.Slice(ratios, func(i, j int) bool { return ratios[i].ratio > ratios[j].ratio })
	take := func(rs []engRatio) []FlipRatioCell {
		out := make([]FlipRatioCell, 0, 5)
		for _, e := range rs {
			out = append(out, FlipRatioCell{Engine: e.name, Ratio: e.ratio, Flips: e.flips})
			if len(out) == 5 {
				break
			}
		}
		return out
	}
	res.MostFlippy = take(ratios)
	rev := make([]engRatio, len(ratios))
	for i, e := range ratios {
		rev[len(ratios)-1-i] = e
	}
	res.LeastFlippy = take(rev)
	return res, nil
}

// Render prints the heatmap summary.
func (f *Figure10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: flip ratio per engine and file type")
	fmt.Fprintf(w, "Arcabit/ELF executable %s (paper 25.78%%), Arcabit/DEX %s (paper 0.05%%)\n",
		pct(f.ArcabitELF), pct(f.ArcabitDEX))
	fmt.Fprintln(w, "most flip-prone engines (overall ratio):")
	for _, c := range f.MostFlippy {
		fmt.Fprintf(w, "  %-22s %s (%d flips)\n", c.Engine, pct(c.Ratio), c.Flips)
	}
	fmt.Fprintln(w, "most stable engines (overall ratio):")
	for _, c := range f.LeastFlippy {
		fmt.Fprintf(w, "  %-22s %s (%d flips)\n", c.Engine, pct(c.Ratio), c.Flips)
	}
	fmt.Fprintln(w, "(paper: Arcabit, F-Secure, Lionic flip-prone; Jiangmin, AhnLab stable)")
}

// --- §7.1.1: flip census ----------------------------------------------

// Section71Result reproduces the flip census over dataset S.
type Section71Result struct {
	Total core.FlipCounts
	// UpShare is the 0→1 share of all flips (paper: 12.27M of 16.8M
	// ≈ 73%).
	UpShare float64
	// FlipsPerReport is flips divided by opportunities (the paper
	// reports ~1 flip per report on average in its own units).
	FlipsPerReport float64
}

// Section71Flips runs the census.
func (r *Runner) Section71Flips() (*Section71Result, error) {
	p, err := r.flipsOverS()
	if err != nil {
		return nil, err
	}
	res := &Section71Result{Total: p.m.Total()}
	if res.Total.Flips() > 0 {
		res.UpShare = float64(res.Total.Up) / float64(res.Total.Flips())
	}
	if res.Total.Opportunities > 0 {
		res.FlipsPerReport = float64(res.Total.Flips()) / float64(res.Total.Opportunities)
	}
	return res, nil
}

// Render prints the census.
func (s *Section71Result) Render(w io.Writer) {
	fmt.Fprintln(w, "§7.1.1: label flip census (dataset S)")
	fmt.Fprintf(w, "flips %d (0→1: %d, 1→0: %d); 0→1 share %s (paper 72.9%%)\n",
		s.Total.Flips(), s.Total.Up, s.Total.Down, pct(s.UpShare))
	fmt.Fprintf(w, "hazard flips: %d (0→1→0: %d, 1→0→1: %d) — paper found only 9 in 16.8M flips\n",
		s.Total.Hazards(), s.Total.Hazard01, s.Total.Hazard10)
	fmt.Fprintf(w, "hazard share of flips: %.2e\n", s.hazardShare())
}

func (s *Section71Result) hazardShare() float64 {
	if s.Total.Flips() == 0 {
		return 0
	}
	return float64(s.Total.Hazards()) / float64(s.Total.Flips())
}

// --- §5.5: causes of label dynamics -----------------------------------

// Section55Result reproduces the update-coincidence measurement.
type Section55Result struct {
	Flips            int
	UpdateCoincident int
	// Share is the update-coincident fraction (paper: ~60%).
	Share float64
	// UndetectedShare is the share of engine-scan entries that are
	// Undetected — the activity cause (iii).
	UndetectedShare float64
}

// Section55FlipCauses measures how many flips coincide with engine
// signature updates, plus the prevalence of activity gaps. It reads
// the shared flip pass, whose total equals core.CountFlips summed
// over the roster: an absent engine's series is all Undetected, and
// every dataset-S history has the ≥ 2 reports AddHistory requires.
func (r *Runner) Section55FlipCauses() (*Section55Result, error) {
	p, err := r.flipsOverS()
	if err != nil {
		return nil, err
	}
	total := p.m.Total()
	res := &Section55Result{Flips: total.Flips(), UpdateCoincident: total.UpdateCoincident}
	if res.Flips > 0 {
		res.Share = float64(res.UpdateCoincident) / float64(res.Flips)
	}
	if p.entries > 0 {
		res.UndetectedShare = float64(p.undetected) / float64(p.entries)
	}
	return res, nil
}

// Render prints the cause attribution.
func (s *Section55Result) Render(w io.Writer) {
	fmt.Fprintln(w, "§5.5: causes of label dynamics")
	fmt.Fprintf(w, "flips with engine update between the two scans: %d of %d (%s; paper ~60%%)\n",
		s.UpdateCoincident, s.Flips, pct(s.Share))
	fmt.Fprintf(w, "engine activity gaps (undetected entries): %s of all engine-scan entries\n",
		pct(s.UndetectedShare))
}
