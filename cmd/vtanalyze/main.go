// Command vtanalyze runs the paper's experiments against the
// simulated pipeline and prints each table/figure analogue.
//
// Usage:
//
//	vtanalyze [flags] [experiment ...]
//
// With no experiment arguments every experiment runs in paper order.
// Every run simulates and collects its own data: table2 and storescan
// share one collection into -store DIR, which must be empty, or into a
// temp dir. Experiment names:
//
//	table1 table2 table3                      dataset & API semantics
//	storescan                                 store-derived census (pushdown scan)
//	fig1 fig2 fig3 fig4 fig5 fig6 fig7        landscape & dynamics
//	fig8 obs8 fig9                            aggregation & stabilization
//	fig10 sec71 sec55                         engine flips & causes
//	fig11 fig12                               engine correlation
//	strategies latency kappa predict family   extensions
//	ablation-rescan ablation-coupling         ablations
//	ablation-window ablation-corr
//
// Example:
//
//	vtanalyze -dynamics 60000 fig8 fig9
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vtdynamics/internal/experiments"
	"vtdynamics/internal/obs"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "simulation seed (equal seeds reproduce results)")
		population = flag.Int("population", 400000, "population size for Table 3 / Figure 1")
		dynamics   = flag.Int("dynamics", 60000, "dataset-S size for dynamics experiments")
		service    = flag.Int("service", 8000, "workload size for the service/feed/store pipeline (Table 2)")
		corrScans  = flag.Int("corr-scans", 40000, "scan rows for engine-correlation matrices")
		workers    = flag.Int("workers", 0, "scan parallelism (0 = GOMAXPROCS)")
		storeDir   = flag.String("store", "", "empty directory that Table 2 and storescan collect into (default: temp dir)")
		csvDir     = flag.String("csv", "", "also export plot-ready CSV series into this directory")
	)
	flag.Parse()

	runner, err := experiments.NewRunner(experiments.Config{
		Seed:             *seed,
		PopulationSize:   *population,
		DynamicsSize:     *dynamics,
		ServiceSize:      *service,
		CorrelationScans: *corrScans,
		Workers:          *workers,
	})
	if err != nil {
		fatal(err)
	}

	// Table 2 and storescan account one collection into one directory.
	dir, cleanup := *storeDir, func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "vtstore")
		if err != nil {
			fatal(err)
		}
		dir, cleanup = tmp, func() { os.RemoveAll(tmp) }
	}
	defer cleanup()
	die := func(err error) { cleanup(); fatal(err) }

	var csvTables []experiments.CSVTable
	exportCSV := func(tables []experiments.CSVTable) {
		if *csvDir != "" {
			csvTables = append(csvTables, tables...)
		}
	}

	run := map[string]func() error{
		"table1": func() error {
			res, err := runner.Table1APIUpdateRules()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"table2": func() error {
			res, err := runner.Table2DatasetOverview(dir)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"storescan": func() error {
			res, err := runner.StoreScanCensus(dir)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"table3": func() error {
			res, err := runner.Table3FileTypeDist()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"fig1": func() error {
			res, err := runner.Figure1ReportsCDF()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig2": func() error {
			res, err := runner.Figure2StableDynamic()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig3": func() error {
			res, err := runner.Figure3StableAVRank()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig4": func() error {
			res, err := runner.Figure4StableTimeSpan()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig5": func() error {
			res, err := runner.Figure5DeltaCDF()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig6": func() error {
			res, err := runner.Figure6DeltaByType()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig7": func() error {
			res, err := runner.Figure7DiffVsInterval()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig8": func() error {
			all, pe, err := runner.Figure8Categories()
			if err != nil {
				return err
			}
			all.Render(os.Stdout)
			pe.Render(os.Stdout)
			exportCSV(all.CSVTables())
			exportCSV(pe.CSVTables())
			return nil
		},
		"fig9": func() error {
			a, err := runner.Figure9LabelStability(false)
			if err != nil {
				return err
			}
			a.Render(os.Stdout)
			exportCSV(a.CSVTables())
			b, err := runner.Figure9LabelStability(true)
			if err != nil {
				return err
			}
			b.Render(os.Stdout)
			exportCSV(b.CSVTables())
			return nil
		},
		"obs8": func() error {
			res, err := runner.Observation8Stability()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig10": func() error {
			res, err := runner.Figure10FlipRatios()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig11": func() error {
			res, err := runner.Figure11Correlation()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"fig12": func() error {
			res, err := runner.Figure12PerTypeGroups()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			exportCSV(res.CSVTables())
			return nil
		},
		"sec71": func() error {
			res, err := runner.Section71Flips()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"sec55": func() error {
			res, err := runner.Section55FlipCauses()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"family": func() error {
			res, err := runner.FamilyStability()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"predict": func() error {
			res, err := runner.LabelPrediction()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"latency": func() error {
			res, err := runner.EngineLatencyProfiles()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"kappa": func() error {
			res, err := runner.KappaRobustness()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"strategies": func() error {
			res, err := runner.StrategyStability()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"ablation-rescan": func() error {
			res, err := runner.AblationRescanPolicy(2000)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"ablation-coupling": func() error {
			res, err := runner.AblationUpdateCoupling(1500)
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"ablation-window": func() error {
			res, err := runner.AblationMeasurementWindow()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
		"ablation-corr": func() error {
			res, err := runner.AblationCorrelationThreshold()
			if err != nil {
				return err
			}
			res.Render(os.Stdout)
			return nil
		},
	}

	order := []string{"table1", "table2", "storescan", "table3", "fig1", "fig2", "fig3", "fig4",
		"fig5", "fig6", "fig7", "fig8", "obs8", "fig9", "fig10", "sec71", "sec55",
		"fig11", "fig12", "strategies", "latency", "kappa", "predict", "family",
		"ablation-rescan", "ablation-coupling", "ablation-window", "ablation-corr"}

	selected := flag.Args()
	if len(selected) == 0 {
		selected = order
	}
	start := time.Now()
	for _, name := range selected {
		f, ok := run[name]
		if !ok {
			die(fmt.Errorf("unknown experiment %q (known: %v)", name, order))
		}
		fmt.Printf("=== %s (t=%.1fs) ===\n", name, time.Since(start).Seconds())
		if err := f(); err != nil {
			die(err)
		}
		fmt.Println()
	}
	if *csvDir != "" && len(csvTables) > 0 {
		if err := experiments.WriteCSVDir(*csvDir, csvTables); err != nil {
			die(err)
		}
		fmt.Printf("wrote %d CSV series to %s\n", len(csvTables), *csvDir)
	}
	fmt.Printf("completed %d experiments in %.1fs (seed %d)\n",
		len(selected), time.Since(start).Seconds(), *seed)
	if s := obs.Default().Summary(); s != "" {
		fmt.Fprintln(os.Stderr, "vtanalyze metrics:", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vtanalyze:", err)
	os.Exit(1)
}
