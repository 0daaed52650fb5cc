package benchkit

import (
	"testing"
	"time"
)

// testProfile is a miniature profile so the whole scenario suite runs
// in seconds; the knobs exercise every code path (concurrent fetch,
// cache warm + hit, faulty server) at small scale.
var testProfile = Profile{
	Name:        "test",
	Samples:     120,
	Workers:     4,
	Reps:        2,
	Warmup:      0,
	Gets:        8,
	HotSet:      4,
	HotGets:     64,
	APIRequests: 6,
	Interval:    7 * 24 * time.Hour,
}

func TestAllScenariosProduceValidResults(t *testing.T) {
	for _, sc := range Scenarios {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(sc, RunConfig{
				Profile: testProfile,
				Seed:    7,
				WorkDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Scenario != sc.Name || res.Profile != "test" || res.Seed != 7 {
				t.Fatalf("result identity wrong: %+v", res)
			}
			if len(res.RepNS) != testProfile.Reps {
				t.Fatalf("%d reps recorded, want %d", len(res.RepNS), testProfile.Reps)
			}
			for i, ops := range res.RepOps {
				if ops <= 0 {
					t.Fatalf("rep %d did no work", i)
				}
			}
			// vtbench/2: every rep carries its allocation record, and
			// real scenarios always allocate something.
			if len(res.RepAllocs) != testProfile.Reps || len(res.RepBytes) != testProfile.Reps {
				t.Fatalf("alloc columns ragged: %d/%d", len(res.RepAllocs), len(res.RepBytes))
			}
			if res.Stats.AllocsPerOp <= 0 || res.Stats.BytesPerOp <= 0 {
				t.Fatalf("alloc stats missing: %+v", res.Stats)
			}
			if len(res.Obs) == 0 {
				t.Fatal("no obs snapshot recorded")
			}
			if len(res.Params) == 0 {
				t.Fatal("no params recorded")
			}
		})
	}
}

// TestIngestRepsDoEqualWork pins the determinism contract: every rep
// of a scenario processes the same op count, or the medians mean
// nothing.
func TestIngestRepsDoEqualWork(t *testing.T) {
	res, err := Run(ingestScenario, RunConfig{Profile: testProfile, Seed: 7, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.RepOps); i++ {
		if res.RepOps[i] != res.RepOps[0] {
			t.Fatalf("rep op counts diverge: %v", res.RepOps)
		}
	}
}

// TestHandicapTripsTheGate is the end-to-end acceptance check for the
// regression gate: a measured run compared with its own 2x handicapped
// copy (what RunConfig.Handicap makes of a run) must fail `compare` at
// a 10%% threshold, and compared with itself must pass. The ratio is
// exactly 2 however loaded the machine is; between two separately
// measured runs of the tiny test profile, noise can outweigh it.
func TestHandicapTripsTheGate(t *testing.T) {
	base, err := Run(ingestScenario, RunConfig{Profile: testProfile, Seed: 7, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compare(base, base.Handicapped(2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Regressed {
		t.Fatalf("2x handicap passed the gate: delta=%.2f allowed=%.2f", c.Delta, c.Allowed)
	}
	if c, err = Compare(base, base, 10); err != nil {
		t.Fatal(err)
	}
	if c.Regressed {
		t.Fatalf("a run regressed against itself: delta=%.2f allowed=%.2f", c.Delta, c.Allowed)
	}
}

func TestScenarioAndProfileLookups(t *testing.T) {
	for _, name := range ScenarioNames() {
		sc, err := ScenarioByName(name)
		if err != nil || sc.Name != name {
			t.Fatalf("ScenarioByName(%q) = %v, %v", name, sc.Name, err)
		}
	}
	if _, err := ScenarioByName("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ProfileByName(%q) = %v, %v", name, p.Name, err)
		}
		if p.Reps < 1 || p.Samples < 1 {
			t.Fatalf("profile %q undersized: %+v", name, p)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
