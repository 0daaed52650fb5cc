package experiments

import (
	"bytes"
	"io"
	"testing"

	"vtdynamics/internal/core"
	"vtdynamics/internal/vtsim"
)

// smallRunner returns a fresh runner whose dataset S is small enough
// that every pass over it takes well under a second.
func smallRunner(t *testing.T, workers int) *Runner {
	t.Helper()
	r, err := NewRunner(Config{
		Seed:             7,
		PopulationSize:   1,
		DynamicsSize:     800,
		ServiceSize:      1,
		CorrelationScans: 1,
		Workers:          workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFlipMatrixTotalMatchesRosterCountFlips pins the substitution
// §5.5 relies on: for every dataset-S history, a FlipMatrix fed that
// history totals exactly what core.CountFlips summed over the roster
// gives. It holds because an engine absent from a history adds
// nothing and every history has the two reports AddHistory requires.
func TestFlipMatrixTotalMatchesRosterCountFlips(t *testing.T) {
	r := smallRunner(t, 1)
	samples, err := r.DatasetS()
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, s := range samples {
		h := vtsim.ScanSample(r.set, s)
		var roster core.FlipCounts
		for _, name := range r.Engines().Names() {
			roster.Add(core.CountFlips(core.ExtractEngineSeries(h, name)))
		}
		m := core.NewFlipMatrix()
		m.AddHistory(h)
		if got := m.Total(); got != roster {
			t.Fatalf("%s (%d reports): matrix total %+v, roster CountFlips %+v",
				s.SHA256, len(h.Reports), got, roster)
		}
		flips += roster.Flips()
	}
	if flips == 0 {
		t.Fatal("dataset S has no flips; the comparison proves nothing")
	}
}

// TestDatasetSPassesWorkerInvariant runs every experiment that scans
// dataset S (and LabelPrediction's fresh corpora) at one and at three
// workers. Rendered bytes, not structs, are compared: latency means
// merge per-worker float sums, which may differ in the last bit.
func TestDatasetSPassesWorkerInvariant(t *testing.T) {
	type renderer interface{ Render(io.Writer) }
	render := func(workers int) string {
		r := smallRunner(t, workers)
		var buf bytes.Buffer
		for _, run := range []func() (renderer, error){
			func() (renderer, error) { return r.Figure10FlipRatios() },
			func() (renderer, error) { return r.Section71Flips() },
			func() (renderer, error) { return r.Section55FlipCauses() },
			func() (renderer, error) { return r.StrategyStability() },
			func() (renderer, error) { return r.EngineLatencyProfiles() },
			func() (renderer, error) { return r.LabelPrediction() },
			func() (renderer, error) { return r.FamilyStability() },
		} {
			res, err := run()
			if err != nil {
				t.Fatal(err)
			}
			res.Render(&buf)
		}
		return buf.String()
	}
	one, three := render(1), render(3)
	if one != three {
		t.Fatalf("output differs between 1 and 3 workers:\n--- workers=1\n%s\n--- workers=3\n%s", one, three)
	}
}
