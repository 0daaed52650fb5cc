package experiments

import (
	"fmt"
	"io"
	"sort"

	"vtdynamics/internal/core"
	"vtdynamics/internal/ftypes"
	"vtdynamics/internal/vtsim"
)

// --- Figure 11: strong engine correlations (overall) -------------------

// Figure11Result reproduces the overall strong-correlation network.
type Figure11Result struct {
	// StrongPairs holds every pair with ρ > 0.8, strongest first.
	StrongPairs []core.PairCorrelation
	// Groups are the connected components (the engine groups).
	Groups [][]string
	// InvolvedEngines counts engines with at least one strong edge
	// (paper: 17).
	InvolvedEngines int
	// Scans is the number of matrix rows analyzed.
	Scans int
}

// buildMatrix scans dataset-S samples into a verdict matrix until the
// row cap is reached. A nil filter accepts every sample.
func (r *Runner) buildMatrix(filter func(ft string) bool) (*core.VerdictMatrix, error) {
	samples, err := r.DatasetS()
	if err != nil {
		return nil, err
	}
	m := core.NewVerdictMatrix(r.set.Names())
	for _, s := range samples {
		if filter != nil && !filter(s.FileType) {
			continue
		}
		m.AddHistory(vtsim.ScanSample(r.set, s))
		if m.Rows() >= r.cfg.CorrelationScans {
			break
		}
	}
	return m, nil
}

// PairFor returns the correlation for a specific pair if present.
func (f *Figure11Result) PairFor(a, b string) (core.PairCorrelation, bool) {
	for _, p := range f.StrongPairs {
		if (p.A == a && p.B == b) || (p.A == b && p.B == a) {
			return p, true
		}
	}
	return core.PairCorrelation{}, false
}

// Figure11Correlation computes the overall correlation network.
func (r *Runner) Figure11Correlation() (*Figure11Result, error) {
	m, err := r.buildMatrix(nil)
	if err != nil {
		return nil, err
	}
	pairs, err := m.Correlations()
	if err != nil {
		return nil, err
	}
	res := &Figure11Result{Scans: m.Rows()}
	involved := map[string]bool{}
	for _, p := range pairs {
		if p.Rho > 0.8 {
			res.StrongPairs = append(res.StrongPairs, p)
			involved[p.A] = true
			involved[p.B] = true
		}
	}
	sort.Slice(res.StrongPairs, func(i, j int) bool {
		return res.StrongPairs[i].Rho > res.StrongPairs[j].Rho
	})
	res.InvolvedEngines = len(involved)
	res.Groups = core.StrongGroups(pairs, 0.8)
	// Keep only multi-engine groups (singletons are engines with no
	// strong edges).
	var groups [][]string
	for _, g := range res.Groups {
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	res.Groups = groups
	return res, nil
}

// Render prints the network summary.
func (f *Figure11Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 11: strong correlations between engines (ρ > 0.8, %d scans)\n", f.Scans)
	fmt.Fprintf(w, "engines involved: %d (paper: 17)\n", f.InvolvedEngines)
	fmt.Fprintln(w, "strongest pairs:")
	for i, p := range f.StrongPairs {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more\n", len(f.StrongPairs)-10)
			break
		}
		fmt.Fprintf(w, "  %-22s %-22s ρ=%.4f\n", p.A, p.B, p.Rho)
	}
	fmt.Fprintln(w, "groups:")
	for _, g := range f.Groups {
		fmt.Fprintf(w, "  %v\n", g)
	}
	fmt.Fprintln(w, "(paper: Paloalto–APEX 0.9933, Webroot–CrowdStrike 0.9754, Avast–AVG 0.9814, BitDefender–FireEye 0.9520, Babable–F-Prot 0.9698)")
}

// --- Figure 12 / Tables 4–8: per-file-type groups ----------------------

// PerTypeGroups is one file type's strong-correlation structure.
type PerTypeGroups struct {
	FileType string
	Groups   [][]string
	Pairs    []core.PairCorrelation
	Scans    int
}

// HasGroupWith reports whether any group contains both engines.
func (p PerTypeGroups) HasGroupWith(a, b string) bool {
	for _, g := range p.Groups {
		hasA, hasB := false, false
		for _, e := range g {
			if e == a {
				hasA = true
			}
			if e == b {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// Figure12Result reproduces the per-type group tables.
type Figure12Result struct {
	PerType []PerTypeGroups
}

// ForType returns the groups for a file type.
func (f *Figure12Result) ForType(ft string) (PerTypeGroups, bool) {
	for _, p := range f.PerType {
		if p.FileType == ft {
			return p, true
		}
	}
	return PerTypeGroups{}, false
}

// figure12Types are the per-type panels we reproduce: the paper's
// Tables 4–8 (top-5 types) plus DEX and GZIP, whose groups showcase
// the type-specific pairs (Avast-Mobile, Lionic–VirIT).
var figure12Types = []string{
	ftypes.Win32EXE, ftypes.TXT, ftypes.HTML, ftypes.ZIP, ftypes.PDF,
	ftypes.DEX, ftypes.GZIP,
}

// Figure12PerTypeGroups computes groups per file type.
func (r *Runner) Figure12PerTypeGroups() (*Figure12Result, error) {
	res := &Figure12Result{}
	for _, ft := range figure12Types {
		ft := ft
		m, err := r.buildMatrix(func(t string) bool { return t == ft })
		if err != nil {
			return nil, err
		}
		if m.Rows() < 2 {
			continue
		}
		pairs, err := m.Correlations()
		if err != nil {
			return nil, err
		}
		var strong []core.PairCorrelation
		for _, p := range pairs {
			if p.Rho > 0.8 {
				strong = append(strong, p)
			}
		}
		sort.Slice(strong, func(i, j int) bool { return strong[i].Rho > strong[j].Rho })
		var groups [][]string
		for _, g := range core.StrongGroups(pairs, 0.8) {
			if len(g) > 1 {
				groups = append(groups, g)
			}
		}
		res.PerType = append(res.PerType, PerTypeGroups{
			FileType: ft,
			Groups:   groups,
			Pairs:    strong,
			Scans:    m.Rows(),
		})
	}
	return res, nil
}

// Render prints the per-type group tables (Tables 4–8 analogues).
func (f *Figure12Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 12 / Tables 4-8: strongly correlated engine groups per file type")
	for _, p := range f.PerType {
		fmt.Fprintf(w, "%s (%d scans): %d groups\n", p.FileType, p.Scans, len(p.Groups))
		for i, g := range p.Groups {
			fmt.Fprintf(w, "  Group %d: %v\n", i+1, g)
		}
	}
	fmt.Fprintln(w, "(paper highlights: Cyren–Fortinet on Win32 EXE only; Avira–Cynet absent on Win32 EXE;")
	fmt.Fprintln(w, " AVG–Avast-Mobile on DEX; Lionic–VirIT on GZIP only; BitDefender group shrinks on ZIP)")
}
