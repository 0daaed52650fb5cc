package experiments

import (
	"fmt"
	"io"
	"sort"

	"vtdynamics/internal/predict"
	"vtdynamics/internal/report"
	"vtdynamics/internal/sampleset"
)

// --- Learned label aggregation (§3.1's ML line) -------------------------

// PredictionResult compares a logistic-regression aggregator trained
// on first-scan verdict vectors against unweighted threshold rules,
// and inspects the learned per-engine weights.
type PredictionResult struct {
	// Learned is the model's held-out performance.
	Learned predict.Metrics
	// Baselines holds threshold-rule performance at several t.
	Baselines map[int]predict.Metrics
	// TopWeights lists the highest-weighted engines.
	TopWeights []EngineWeight
	// GroupWeightRatio compares the mean absolute weight of engines
	// inside copy groups against independent engines: §7.2 predicts
	// correlated engines split the weight an independent engine
	// would receive, pushing the ratio below 1.
	GroupWeightRatio float64
	TrainSize        int
	TestSize         int
}

// EngineWeight pairs an engine with its learned weight.
type EngineWeight struct {
	Engine string
	Weight float64
}

// groupedEngines are the followers in the default roster's copy
// groups (engines whose verdicts largely duplicate a leader's).
var groupedEngines = map[string]bool{
	"AVG": true, "MicroWorld-eScan": true, "GData": true, "FireEye": true,
	"MAX": true, "ALYac": true, "Ad-Aware": true, "Emsisoft": true,
	"K7AntiVirus": true, "TrendMicro-HouseCall": true, "Babable": true,
	"APEX": true, "Webroot": true,
}

// LabelPrediction trains on one fresh corpus and evaluates on
// another, predicting latent sample maliciousness from the first
// scan's verdict vector alone.
func (r *Runner) LabelPrediction() (*PredictionResult, error) {
	feat := predict.NewFeaturizer(r.set.Names())
	build := func(seed int64, n int) ([]predict.Example, error) {
		gen, err := sampleset.NewGenerator(sampleset.Config{
			Seed:         seed,
			NumSamples:   1,
			TopTypesOnly: true,
		})
		if err != nil {
			return nil, err
		}
		samples := make([]*sampleset.Sample, 0, n)
		for len(samples) < n {
			s := gen.Next()
			if !s.Fresh {
				continue
			}
			samples = append(samples, s)
		}
		out := make([]predict.Example, len(samples))
		r.scanEach(samples, func(_, i int, h *report.History) {
			out[i] = predict.Example{X: feat.Features(h.Reports[0]), Y: samples[i].Malicious}
		})
		return out, nil
	}

	nTrain := r.cfg.DynamicsSize / 2
	nTest := r.cfg.DynamicsSize / 4
	train, err := build(r.cfg.Seed+300, nTrain)
	if err != nil {
		return nil, err
	}
	test, err := build(r.cfg.Seed+301, nTest)
	if err != nil {
		return nil, err
	}

	model, err := predict.Train(train, predict.Config{Seed: r.cfg.Seed})
	if err != nil {
		return nil, err
	}

	res := &PredictionResult{
		Learned:   model.Evaluate(test),
		Baselines: map[int]predict.Metrics{},
		TrainSize: len(train),
		TestSize:  len(test),
	}
	for _, t := range []int{1, 2, 5, 10, 20} {
		res.Baselines[t] = predict.ThresholdBaseline(test, t)
	}

	// Weight inspection.
	weights := make([]EngineWeight, feat.Dim())
	for j, e := range feat.Engines() {
		weights[j] = EngineWeight{Engine: e, Weight: model.Weights[j]}
	}
	sort.Slice(weights, func(i, j int) bool { return weights[i].Weight > weights[j].Weight })
	if len(weights) > 10 {
		res.TopWeights = weights[:10]
	} else {
		res.TopWeights = weights
	}
	var groupSum, groupN, indSum, indN float64
	for _, w := range weights {
		a := w.Weight
		if a < 0 {
			a = -a
		}
		if groupedEngines[w.Engine] {
			groupSum += a
			groupN++
		} else {
			indSum += a
			indN++
		}
	}
	if groupN > 0 && indN > 0 && indSum > 0 {
		res.GroupWeightRatio = (groupSum / groupN) / (indSum / indN)
	}
	return res, nil
}

// Render prints the comparison.
func (p *PredictionResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Learned label aggregation (§3.1 ML line): %d train / %d test first-scan vectors\n",
		p.TrainSize, p.TestSize)
	tb := newTable(w, 18, 10, 10, 10, 10)
	tb.row("aggregator", "accuracy", "precision", "recall", "F1")
	tb.row("logistic", pct(p.Learned.Accuracy()), pct(p.Learned.Precision()),
		pct(p.Learned.Recall()), pct(p.Learned.F1()))
	ts := make([]int, 0, len(p.Baselines))
	for t := range p.Baselines {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		m := p.Baselines[t]
		tb.row(fmt.Sprintf("threshold(%d)", t), pct(m.Accuracy()), pct(m.Precision()),
			pct(m.Recall()), pct(m.F1()))
	}
	fmt.Fprintln(w, "highest-weighted engines:")
	for _, ew := range p.TopWeights {
		fmt.Fprintf(w, "  %-22s %+.3f\n", ew.Engine, ew.Weight)
	}
	fmt.Fprintf(w, "copy-group engines carry %.2fx the mean |weight| of independent engines\n",
		p.GroupWeightRatio)
	fmt.Fprintln(w, "(< 1 confirms §7.2: correlated engines split the vote an independent engine earns)")
}
