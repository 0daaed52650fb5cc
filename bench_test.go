// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus micro-benchmarks of the pipeline's hot
// paths. Each experiment benchmark reports its headline statistic as
// a custom metric so `go test -bench` output doubles as a compact
// reproduction report (EXPERIMENTS.md records the full
// paper-vs-measured comparison).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The experiment corpora are built once and shared; the first
// benchmark to need a corpus pays its construction cost inside a
// b.ResetTimer window, so per-iteration numbers measure the analysis,
// not the setup.
package vtdynamics_test

import (
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"vtdynamics"
	"vtdynamics/internal/experiments"
)

// benchRunner is shared across benchmarks; sized so the whole suite
// completes in minutes while keeping the paper's shapes measurable.
var (
	benchOnce   sync.Once
	benchShared *experiments.Runner
)

func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	benchOnce.Do(func() {
		r, err := experiments.NewRunner(experiments.Config{
			Seed:             1,
			PopulationSize:   200_000,
			DynamicsSize:     20_000,
			ServiceSize:      3_000,
			CorrelationScans: 20_000,
		})
		if err != nil {
			panic(err)
		}
		benchShared = r
	})
	return benchShared
}

// BenchmarkTable1APIUpdateRules probes the three APIs' field-update
// semantics (Table 1).
func BenchmarkTable1APIUpdateRules(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Table1APIUpdateRules()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Matches() {
			b.Fatal("Table 1 mismatch")
		}
	}
}

// BenchmarkTable2DatasetOverview runs the full collection pipeline:
// workload → service → per-minute feed → collector → compressed
// store (Table 2).
func BenchmarkTable2DatasetOverview(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		// b.TempDir() ties cleanup to the benchmark even on Fatal
		// paths; per-iteration subdirectories keep runs independent.
		dir := filepath.Join(b.TempDir(), strconv.Itoa(i))
		res, err := r.Table2DatasetOverview(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CompressionRatio, "compressionX")
		b.ReportMetric(float64(res.TotalReports), "reports")
	}
}

// BenchmarkTable3FileTypeDistribution tallies the file-type mix
// (Table 3).
func BenchmarkTable3FileTypeDistribution(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Table3FileTypeDist()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Top20Share*100, "top20pct")
	}
}

// BenchmarkFigure1ReportsPerSampleCDF builds the reports-per-sample
// CDF (Figure 1).
func BenchmarkFigure1ReportsPerSampleCDF(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure1ReportsCDF()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SingleReport*100, "single-report-pct")
	}
}

// BenchmarkFigure2StableDynamicReportCDF classifies multi-report
// samples and builds the per-class CDFs (Figure 2 / Observation 1).
func BenchmarkFigure2StableDynamicReportCDF(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure2StableDynamic()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.StableFraction()*100, "stable-pct")
	}
}

// BenchmarkFigure3StableAVRankCDF measures the stable-sample AV-Rank
// distribution (Figure 3).
func BenchmarkFigure3StableAVRankCDF(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure3StableAVRank()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RankZero*100, "rank0-pct")
	}
}

// BenchmarkFigure4StableTimeSpanByAVRank builds the span-by-rank
// boxplots (Figure 4).
func BenchmarkFigure4StableTimeSpanByAVRank(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure4StableTimeSpan()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BenignMeanDays, "benign-mean-days")
	}
}

// BenchmarkFigure5DeltaCDF computes the δ/Δ distributions (Figure 5).
func BenchmarkFigure5DeltaCDF(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure5DeltaCDF()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DeltaZeroShare*100, "delta0-pct")
	}
}

// BenchmarkFigure6DeltaByFileType builds the per-type dynamics
// boxplots (Figure 6).
func BenchmarkFigure6DeltaByFileType(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure6DeltaByType()
		if err != nil {
			b.Fatal(err)
		}
		if row, ok := res.RowFor(vtdynamics.FileTypeWin32EXE); ok {
			b.ReportMetric(row.Big.Mean, "exe-bigdelta-mean")
		}
	}
}

// BenchmarkFigure7DiffVsInterval extracts every scan pair and
// correlates difference with interval (Figure 7).
func BenchmarkFigure7DiffVsInterval(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure7DiffVsInterval()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Spearman.Rho, "bucket-rho")
	}
}

// BenchmarkFigure8aGrayOverall sweeps thresholds 1..50 over all
// dynamic samples (Figure 8a).
func BenchmarkFigure8aGrayOverall(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		all, _, err := r.Figure8Categories()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(all.MaxGray*100, "maxgray-pct")
	}
}

// BenchmarkFigure8bGrayPE sweeps thresholds over the PE subset
// (Figure 8b).
func BenchmarkFigure8bGrayPE(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		_, pe, err := r.Figure8Categories()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pe.MaxGray*100, "maxgray-pct")
	}
}

// BenchmarkFigure9aLabelStabilizationAll measures label stabilization
// across thresholds for all dataset-S samples (Figure 9a).
func BenchmarkFigure9aLabelStabilizationAll(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure9LabelStability(false)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].StableShare*100, "stable-t2-pct")
	}
}

// BenchmarkFigure9bLabelStabilizationGT2 excludes two-scan samples
// (Figure 9b).
func BenchmarkFigure9bLabelStabilizationGT2(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure9LabelStability(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].StableShare*100, "stable-t2-pct")
	}
}

// BenchmarkObservation8AVRankStabilization measures AV-Rank
// stabilization under fluctuation ranges r = 0..5 (Observation 8).
func BenchmarkObservation8AVRankStabilization(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Observation8Stability()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].StableShare*100, "r0-stable-pct")
		b.ReportMetric(res.Rows[5].StableShare*100, "r5-stable-pct")
	}
}

// BenchmarkFigure10FlipRatioMatrix accumulates the per-(engine, type)
// flip matrix (Figure 10).
// Like the rank-corpus benchmarks, every iteration after the first
// reads the Runner's memoised flip pass over dataset S.
func BenchmarkFigure10FlipRatioMatrix(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure10FlipRatios()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ArcabitELF*100, "arcabit-elf-pct")
	}
}

// BenchmarkSection71LabelFlips runs the flip census including hazard
// flips (§7.1.1).
// Like the rank-corpus benchmarks, every iteration after the first
// reads the Runner's memoised flip pass over dataset S.
func BenchmarkSection71LabelFlips(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Section71Flips()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Total.Flips()), "flips")
		b.ReportMetric(float64(res.Total.Hazards()), "hazards")
	}
}

// BenchmarkSection55FlipCauses measures update-coincident flips
// (§5.5).
// Like the rank-corpus benchmarks, every iteration after the first
// reads the Runner's memoised flip pass over dataset S.
func BenchmarkSection55FlipCauses(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Section55FlipCauses()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Share*100, "update-coincident-pct")
	}
}

// BenchmarkFigure11EngineCorrelationOverall computes the full
// pairwise Spearman matrix and strong groups (Figure 11).
func BenchmarkFigure11EngineCorrelationOverall(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure11Correlation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.InvolvedEngines), "involved-engines")
	}
}

// BenchmarkFigure12PerTypeCorrelationGroups computes the per-type
// group structure (Figure 12 / Tables 4–8).
func BenchmarkFigure12PerTypeCorrelationGroups(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.Figure12PerTypeGroups()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.PerType)), "types")
	}
}

// BenchmarkStrategyStability compares the §3.1 aggregation
// strategies' exposure to label churn.
func BenchmarkStrategyStability(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.StrategyStability()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].EverFlipped*100, "t1-everflipped-pct")
	}
}

// BenchmarkFamilyStability measures AVClass-style family-label churn
// against binary-label churn.
func BenchmarkFamilyStability(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.FamilyStability()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.EverChanged*100, "family-churn-pct")
		b.ReportMetric(res.BinaryEverChanged*100, "binary-churn-pct")
	}
}

// BenchmarkLabelPrediction trains and evaluates the learned
// aggregator (§3.1's ML line).
func BenchmarkLabelPrediction(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.LabelPrediction()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Learned.Accuracy()*100, "accuracy-pct")
		b.ReportMetric(res.GroupWeightRatio, "group-weight-ratio")
	}
}

// BenchmarkEngineLatencyProfiles extracts every observed 0→1
// conversion (§5.5 cause i).
func BenchmarkEngineLatencyProfiles(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.EngineLatencyProfiles()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Overall.Median, "median-days")
	}
}

// BenchmarkKappaRobustness recomputes the group structure under
// Cohen's kappa.
func BenchmarkKappaRobustness(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.KappaRobustness()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AgreeingPairs), "agreeing-pairs")
	}
}

// BenchmarkAblationRescanPolicy compares organic vs. daily-snapshot
// hazard observation (the §7.1.1 discrepancy with prior work).
func BenchmarkAblationRescanPolicy(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationRescanPolicy(1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HazardsPer10kTrajDaily, "daily-hazards-10k")
		b.ReportMetric(res.HazardsPer10kTrajOrganic, "organic-hazards-10k")
	}
}

// BenchmarkAblationUpdateCoupling sweeps the §5.5 coupling knob.
func BenchmarkAblationUpdateCoupling(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationUpdateCoupling(800)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].CoincidentShare*100, "coupling0-pct")
	}
}

// BenchmarkAblationMeasurementWindow recomputes Δ under growing
// windows (§8.1).
func BenchmarkAblationMeasurementWindow(b *testing.B) {
	r := benchRunner(b)
	for i := 0; i < b.N; i++ {
		res, err := r.AblationMeasurementWindow()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[1].GrewFromPrev*100, "grew-30to90-pct")
	}
}

// --- micro-benchmarks of the pipeline hot paths -----------------------

// BenchmarkScanSample measures per-sample history generation — the
// cost that bounds every large experiment.
func BenchmarkScanSample(b *testing.B) {
	sim, err := vtdynamics.NewSimulation(vtdynamics.SimConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	samples, err := vtdynamics.GenerateWorkload(vtdynamics.WorkloadConfig{
		Seed: 1, NumSamples: 4096, MultiOnly: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := sim.ScanSample(samples[i%len(samples)])
		if len(h.Reports) == 0 {
			b.Fatal("empty history")
		}
	}
}

// BenchmarkServiceUpload measures the stateful service path.
func BenchmarkServiceUpload(b *testing.B) {
	sim, err := vtdynamics.NewSimulation(vtdynamics.SimConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	svc, clock := sim.NewService()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(time.Second)
		_, err := svc.Upload(vtdynamics.UploadRequest{
			SHA256:        shaForBench(i),
			FileType:      vtdynamics.FileTypeWin32EXE,
			Malicious:     true,
			Detectability: 0.8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func shaForBench(i int) string {
	const hex = "0123456789abcdef"
	buf := make([]byte, 16)
	for j := range buf {
		buf[j] = hex[(i>>(j%8))&0xf]
	}
	return "bench" + string(buf)
}
