package experiments

import (
	"fmt"
	"io"

	"vtdynamics/internal/family"
	"vtdynamics/internal/report"
)

// --- Family-label stability (§3.1's AVClass practice) -------------------

// FamilyStabilityResult measures how the AVClass-style family label
// behaves under the same dynamics that churn the binary label: the
// family is a plurality over token votes, so single-engine flips that
// move AV-Rank often leave the family untouched.
type FamilyStabilityResult struct {
	Samples int
	// Labeled is the fraction of samples with a family at their last
	// scan (the rest are singletons/unlabeled).
	Labeled float64
	// FamilyFlips is the mean number of family changes per labeled
	// sample across its scans (scans without a family are skipped).
	FamilyFlips float64
	// EverChanged is the fraction of labeled samples whose family
	// ever changed.
	EverChanged float64
	// BinaryEverChanged is, for the same samples, the fraction whose
	// threshold(5) binary label changed — the comparison the family
	// practice implicitly relies on.
	BinaryEverChanged float64
	// MeanSupport is the average engine support behind the final
	// family.
	MeanSupport float64
}

// FamilyStability labels every dataset-S sample per scan and counts
// family churn.
func (r *Runner) FamilyStability() (*FamilyStabilityResult, error) {
	samples, err := r.DatasetS()
	if err != nil {
		return nil, err
	}
	const minEngines = 2
	const binaryThreshold = 5
	type acc struct {
		samples, labeled           int
		familyFlips                int
		everChanged, binaryChanged int
		supportSum, supportN       int
	}
	accs := make([]acc, r.cfg.Workers)
	r.scanEach(samples, func(w, _ int, h *report.History) {
		a := &accs[w]
		a.samples++
		var prev string
		flips := 0
		labeledAtLast := false
		var lastSupport int
		binPrev, binFlips := false, 0
		for si, rep := range h.Reports {
			var labels []string
			for _, er := range rep.Results {
				if er.Verdict == report.Malicious {
					labels = append(labels, er.Label)
				}
			}
			v, ok := family.Label(labels, minEngines)
			if ok {
				if prev != "" && v.Family != prev {
					flips++
				}
				prev = v.Family
				labeledAtLast = true
				lastSupport = v.Engines
			} else {
				labeledAtLast = false
			}
			bin := rep.AVRank >= binaryThreshold
			if si > 0 && bin != binPrev {
				binFlips++
			}
			binPrev = bin
		}
		if labeledAtLast {
			a.labeled++
			a.familyFlips += flips
			if flips > 0 {
				a.everChanged++
			}
			if binFlips > 0 {
				a.binaryChanged++
			}
			a.supportSum += lastSupport
			a.supportN++
		}
	})

	res := &FamilyStabilityResult{}
	var labeled, flips, ever, bin, supSum, supN int
	for _, a := range accs {
		res.Samples += a.samples
		labeled += a.labeled
		flips += a.familyFlips
		ever += a.everChanged
		bin += a.binaryChanged
		supSum += a.supportSum
		supN += a.supportN
	}
	if res.Samples > 0 {
		res.Labeled = float64(labeled) / float64(res.Samples)
	}
	if labeled > 0 {
		res.FamilyFlips = float64(flips) / float64(labeled)
		res.EverChanged = float64(ever) / float64(labeled)
		res.BinaryEverChanged = float64(bin) / float64(labeled)
	}
	if supN > 0 {
		res.MeanSupport = float64(supSum) / float64(supN)
	}
	return res, nil
}

// Render prints the family-stability summary.
func (f *FamilyStabilityResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Family-label stability (AVClass-style plurality, %d dynamic samples)\n", f.Samples)
	fmt.Fprintf(w, "labeled at last scan: %s (mean supporting engines %.1f)\n",
		pct(f.Labeled), f.MeanSupport)
	fmt.Fprintf(w, "family ever changed: %s (%.4f flips/sample)\n",
		pct(f.EverChanged), f.FamilyFlips)
	fmt.Fprintf(w, "threshold(5) binary label ever changed on the same samples: %s\n",
		pct(f.BinaryEverChanged))
	fmt.Fprintln(w, "(plurality family labels ride out the per-engine churn that moves AV-Rank)")
}
