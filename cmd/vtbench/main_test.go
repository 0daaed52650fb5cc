package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/benchkit"
)

func TestParseRunFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(t *testing.T, o *runOptions)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, o *runOptions) {
				if len(o.scenarios) != len(benchkit.Scenarios) {
					t.Errorf("default scenarios = %v", o.scenarios)
				}
				if o.profile.Name != "smoke" || o.seed != 1 || o.out != "." {
					t.Errorf("defaults = %+v", o)
				}
			},
		},
		{
			name: "explicit subset and handicap",
			args: []string{"-scenario", "ingest,scan", "-profile", "full", "-seed", "42", "-out", "/tmp/x", "-handicap", "ingest=2"},
			check: func(t *testing.T, o *runOptions) {
				if len(o.scenarios) != 2 || o.scenarios[0] != "ingest" || o.scenarios[1] != "scan" {
					t.Errorf("scenarios = %v", o.scenarios)
				}
				if o.profile.Name != "full" || o.seed != 42 || o.out != "/tmp/x" {
					t.Errorf("parsed = %+v", o)
				}
				if o.handicaps["ingest"] != 2 {
					t.Errorf("handicaps = %v", o.handicaps)
				}
			},
		},
		{
			name: "profile outputs",
			args: []string{"-cpuprofile", "cpu.out", "-memprofile", "mem.out"},
			check: func(t *testing.T, o *runOptions) {
				if o.cpuprofile != "cpu.out" || o.memprofile != "mem.out" {
					t.Errorf("profile paths = %q/%q", o.cpuprofile, o.memprofile)
				}
			},
		},
		{name: "unknown scenario", args: []string{"-scenario", "nope"}, wantErr: true},
		{name: "unknown profile", args: []string{"-profile", "nope"}, wantErr: true},
		{name: "bad handicap spec", args: []string{"-handicap", "ingest"}, wantErr: true},
		{name: "bad handicap factor", args: []string{"-handicap", "ingest=0.5"}, wantErr: true},
		{name: "handicap for unknown scenario", args: []string{"-handicap", "nope=2"}, wantErr: true},
		{name: "stray positional", args: []string{"extra"}, wantErr: true},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			opts, err := parseRunFlags(c.args, &stderr)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parse accepted %v: %+v", c.args, opts)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, opts)
		})
	}
}

func TestParseCompareFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		want    compareOptions
	}{
		{
			name: "positionals then flag",
			args: []string{"old", "new", "-threshold", "25"},
			want: compareOptions{old: "old", new: "new", threshold: 25},
		},
		{
			name: "flag then positionals",
			args: []string{"-threshold", "25", "old", "new"},
			want: compareOptions{old: "old", new: "new", threshold: 25},
		},
		{
			name: "default threshold",
			args: []string{"old", "new"},
			want: compareOptions{old: "old", new: "new", threshold: 10},
		},
		{name: "missing new", args: []string{"old"}, wantErr: true},
		{name: "too many paths", args: []string{"a", "b", "c"}, wantErr: true},
		{name: "negative threshold", args: []string{"old", "new", "-threshold", "-1"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			opts, err := parseCompareFlags(c.args, &stderr)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parse accepted %v: %+v", c.args, opts)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if *opts != c.want {
				t.Fatalf("parsed %+v, want %+v", *opts, c.want)
			}
		})
	}
}

func TestHelpAndUsageExitCodes(t *testing.T) {
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"-h"}, 0},
		{[]string{"help"}, 0},
		{[]string{"run", "-h"}, 0},
		{[]string{"compare", "-h"}, 0},
		{[]string{"run", "-bogus"}, 2},
		{[]string{"compare"}, 2},
		{[]string{"list"}, 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.code {
			t.Errorf("run(%v) = %d, want %d (stderr: %s)", c.args, code, c.code, stderr.String())
		}
	}
}

func TestListNamesEveryScenario(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	for _, name := range benchkit.ScenarioNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("list output missing scenario %q", name)
		}
	}
	for _, name := range benchkit.ProfileNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("list output missing profile %q", name)
		}
	}
}

// testProfile keeps the end-to-end CLI test fast; the real profiles
// are exercised by the CI perf-smoke job.
func installTestProfile(t *testing.T) {
	t.Helper()
	saved := benchkit.Profiles["smoke"]
	benchkit.Profiles["smoke"] = benchkit.Profile{
		Name:        "smoke",
		Samples:     100,
		Workers:     2,
		Reps:        2,
		Warmup:      0,
		Gets:        4,
		HotSet:      4,
		HotGets:     32,
		APIRequests: 4,
		Interval:    14 * 24 * time.Hour,
	}
	t.Cleanup(func() { benchkit.Profiles["smoke"] = saved })
}

// TestRunCompareEndToEnd drives the real binary surface: run all
// scenarios, compare the records against themselves (passes), then
// compare the ingest record against its 16x handicapped copy and
// watch compare exit 1 — the acceptance criterion for the regression
// gate.
func TestRunCompareEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end CLI run")
	}
	installTestProfile(t)
	baseDir := t.TempDir()

	cpuOut := filepath.Join(baseDir, "cpu.pprof")
	memOut := filepath.Join(baseDir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"run", "-scenario", "all", "-out", baseDir,
		"-cpuprofile", cpuOut, "-memprofile", memOut}, &stdout, &stderr); code != 0 {
		t.Fatalf("baseline run exited %d: %s", code, stderr.String())
	}
	for _, p := range []string{cpuOut, memOut} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
	for _, name := range benchkit.ScenarioNames() {
		path := filepath.Join(baseDir, benchkit.FileName(name))
		if _, err := benchkit.ReadFile(path); err != nil {
			t.Fatalf("baseline record invalid: %v", err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}

	stdout.Reset()
	stderr.Reset()
	// The baseline compares clean against itself.
	if code := run([]string{"compare", baseDir, baseDir, "-threshold", "400"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean compare exited %d: %s\n%s", code, stderr.String(), stdout.String())
	}

	// A handicapped ingest must trip the gate even at that threshold.
	// The handicapped record is the baseline's own measurement,
	// handicapped as `run -handicap ingest=16` handicaps its run, so the
	// ratio compare sees is 16 however loaded the machine is.
	basePath := filepath.Join(baseDir, benchkit.FileName("ingest"))
	base, err := benchkit.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	slowPath, err := base.Handicapped(16).WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	code := run([]string{"compare", basePath, slowPath, "-threshold", "400"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("handicapped compare exited %d, want 1: %s\n%s", code, stderr.String(), stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSED") {
		t.Fatalf("compare output missing verdict: %s", stdout.String())
	}
}
