package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/benchkit"
)

func TestParseSoakFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		check   func(t *testing.T, o *soakOptions)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, o *soakOptions) {
				if o.soak.Arrivals != 100000 || o.soak.Rate != 2000 || o.soak.Clients != 1000 {
					t.Errorf("defaults = %+v", o.soak)
				}
				if o.soak.Storms || o.soak.Handicap != 1 || o.out != "." || o.histout != "" {
					t.Errorf("defaults = %+v", o)
				}
			},
		},
		{
			name: "explicit knobs",
			args: []string{"-arrivals", "500", "-rate", "250", "-clients", "32",
				"-samples", "100", "-submitters", "50", "-zipf", "1.3", "-seed", "7",
				"-storms", "-feedwindow", "5s", "-feedlimit", "64", "-out", "/tmp/x",
				"-handicap", "20", "-histout", "hist.json"},
			check: func(t *testing.T, o *soakOptions) {
				s := o.soak
				if s.Arrivals != 500 || s.Rate != 250 || s.Clients != 32 || s.Samples != 100 ||
					s.Submitters != 50 || s.Zipf != 1.3 || s.Seed != 7 || !s.Storms ||
					s.FeedWindow != 5*time.Second || s.FeedLimit != 64 || s.Handicap != 20 {
					t.Errorf("parsed = %+v", s)
				}
				if o.out != "/tmp/x" || o.histout != "hist.json" {
					t.Errorf("outputs = %q/%q", o.out, o.histout)
				}
			},
		},
		{name: "handicap below one", args: []string{"-handicap", "0.5"}, wantErr: true},
		{name: "zero feed limit", args: []string{"-feedlimit", "0"}, wantErr: true},
		{name: "zero rate", args: []string{"-rate", "0"}, wantErr: true},
		{name: "zero arrivals", args: []string{"-arrivals", "0"}, wantErr: true},
		{name: "positional junk", args: []string{"extra"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBuf bytes.Buffer
			o, err := parseSoakFlags(tc.args, &errBuf)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("parse accepted %v", tc.args)
				}
				return
			}
			if err != nil {
				t.Fatalf("parse rejected %v: %v", tc.args, err)
			}
			tc.check(t, o)
		})
	}
}

// TestSoakCompareEndToEnd is the CLI-level gate self-test: a tiny
// clean soak records a baseline, its 25x handicapped record must exit
// 1 from compare, and the baseline compares ok against itself.
func TestSoakCompareEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-scale end-to-end soak")
	}
	baseDir := t.TempDir()
	slowDir := t.TempDir()
	histPath := filepath.Join(baseDir, "hist.json")
	common := []string{"soak", "-arrivals", "400", "-rate", "1200", "-clients", "48",
		"-samples", "200", "-submitters", "100", "-seed", "3"}

	var out, errOut bytes.Buffer
	args := append(append([]string{}, common...), "-out", baseDir, "-histout", histPath)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("clean soak exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "p99.9") {
		t.Fatalf("soak output has no tail table:\n%s", out.String())
	}
	basePath := filepath.Join(baseDir, "BENCH_soak.json")
	if _, err := os.Stat(basePath); err != nil {
		t.Fatalf("no record written: %v", err)
	}
	// The histogram artifact must be real JSON with per-op series.
	var hist soakHistArtifact
	b, err := os.ReadFile(histPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &hist); err != nil {
		t.Fatalf("histout is not JSON: %v", err)
	}
	if hist.Overall.Count == 0 || len(hist.PerOp) == 0 {
		t.Fatalf("histout is empty: %+v", hist)
	}

	// Handicap vs clean baseline: the gate must trip. The handicapped
	// record is the baseline's own measurement, handicapped as `soak
	// -handicap 25` handicaps its run (benchkit's
	// TestSoakHandicapTripsP99Gate pins that), so the ratio compare sees
	// is 25 however loaded the machine is.
	base, err := benchkit.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	slowPath, err := base.Handicapped(25).WriteFile(slowDir)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	code := run([]string{"compare", basePath, slowPath, "-threshold", "400"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("compare vs 25x handicap exited %d, want 1\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("compare output hides the verdict:\n%s", out.String())
	}

	// Baseline against itself: clean exit.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"compare", basePath, basePath, "-threshold", "400"}, &out, &errOut); code != 0 {
		t.Fatalf("self-compare exited %d: %s", code, errOut.String())
	}
}
