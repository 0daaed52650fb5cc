package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"vtdynamics/internal/report"
	"vtdynamics/internal/store"
)

func TestParseFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
		want    options
	}{
		{
			name: "default subcommand is stats",
			args: nil,
			want: options{dir: "./vtdata", workers: 0, cmd: "stats"},
		},
		{
			name: "explicit subcommand and flags",
			args: []string{"-store", "/tmp/s", "-workers", "4", "verify"},
			want: options{dir: "/tmp/s", workers: 4, cmd: "verify"},
		},
		{
			name: "list",
			args: []string{"list"},
			want: options{dir: "./vtdata", cmd: "list"},
		},
		{
			name: "reindex",
			args: []string{"reindex"},
			want: options{dir: "./vtdata", cmd: "reindex"},
		},
		{
			name: "migrate",
			args: []string{"migrate"},
			want: options{dir: "./vtdata", cmd: "migrate"},
		},
		{
			name: "repair",
			args: []string{"repair"},
			want: options{dir: "./vtdata", cmd: "repair"},
		},
		{
			name: "migrate with store flag",
			args: []string{"-store", "/tmp/s", "migrate"},
			want: options{dir: "/tmp/s", cmd: "migrate"},
		},
		{name: "unknown subcommand", args: []string{"frobnicate"}, wantErr: true},
		{name: "two subcommands", args: []string{"stats", "verify"}, wantErr: true},
		{name: "migrate rejects extra argument", args: []string{"migrate", "2021-05"}, wantErr: true},
		{name: "negative workers", args: []string{"-workers", "-1"}, wantErr: true},
		{name: "unknown flag", args: []string{"-bogus"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts, err := parseFlags(c.args)
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

func TestParseFlagsHelp(t *testing.T) {
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
}

// sidecar mirrors the store's sidecar JSON schema — zone fields
// included, since Open rebuilds (and thereby heals) any sidecar with an
// unzoned entry — so tests can tamper with individual block entries
// while keeping the file one Open trusts.
type sidecar struct {
	FileSize int64            `json:"file_size"`
	Ver      int              `json:"ver,omitempty"`
	Blocks   []sidecarBlock   `json:"blocks"`
	Postings map[string][]int `json:"postings"`
}

type sidecarBlock struct {
	O int64 `json:"o"`
	L int64 `json:"l"`
	N int   `json:"n"`
	R int64 `json:"r"`
	V int   `json:"v,omitempty"`

	Z  int    `json:"z,omitempty"`
	T0 int64  `json:"t0,omitempty"`
	T1 int64  `json:"t1,omitempty"`
	M  int    `json:"m,omitempty"`
	FB uint64 `json:"fb,omitempty"`
	EB uint64 `json:"eb,omitempty"`
	LB uint64 `json:"lb,omitempty"`
}

// buildVerifyStore writes a small closed store with several blocks.
func buildVerifyStore(t *testing.T, dir string) {
	t.Helper()
	s, err := store.Open(dir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if err := s.Put(verifyEnvelope(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func verifyEnvelope(i int) report.Envelope {
	base := time.Date(2021, 5, 3, 12, 0, 0, 0, time.UTC)
	sha := fmt.Sprintf("verify%02d", i)
	return report.Envelope{
		Meta: report.SampleMeta{
			SHA256:              sha,
			FileType:            "Win32 EXE",
			Size:                2048,
			FirstSubmissionDate: base,
			LastAnalysisDate:    base,
			LastSubmissionDate:  base,
			TimesSubmitted:      1,
		},
		Scan: report.ScanReport{
			SHA256:       sha,
			FileType:     "Win32 EXE",
			AnalysisDate: base.Add(time.Duration(i) * time.Hour),
			AVRank:       1,
			EnginesTotal: 2,
			Results: []report.EngineResult{
				{Engine: "Avast", Verdict: report.Malicious, Label: "Trojan.Gen", SignatureVersion: 1},
				{Engine: "BitDefender", Verdict: report.Benign, SignatureVersion: 2},
			},
		},
	}
}

// TestVerifyExitStatus pins the satellite contract: `vtstore verify`
// exits non-zero whenever a sidecar block entry disagrees with the
// partition payload, so sync parity checks can shell out to it.
func TestVerifyExitStatus(t *testing.T) {
	cases := []struct {
		name     string
		corrupt  func(t *testing.T, sc *sidecar)
		wantCode int
	}{
		{
			name:     "clean store",
			wantCode: 0,
		},
		{
			name: "inflated block row count",
			corrupt: func(t *testing.T, sc *sidecar) {
				sc.Blocks[0].N++
			},
			wantCode: 1,
		},
		{
			name: "wrong block raw bytes",
			corrupt: func(t *testing.T, sc *sidecar) {
				sc.Blocks[0].R += 17
			},
			wantCode: 1,
		},
		{
			name: "lying block version",
			corrupt: func(t *testing.T, sc *sidecar) {
				sc.Blocks[0].V = 0 // claims v1, payload is v2
			},
			wantCode: 1,
		},
		{
			name: "posting dropped",
			corrupt: func(t *testing.T, sc *sidecar) {
				for sha := range sc.Postings {
					delete(sc.Postings, sha)
					return
				}
				t.Fatal("no postings to drop")
			},
			wantCode: 1,
		},
		{
			name: "posting for a sample the block does not hold",
			corrupt: func(t *testing.T, sc *sidecar) {
				sc.Postings["phantomsample"] = []int{0}
			},
			wantCode: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			buildVerifyStore(t, dir)
			idxPath := filepath.Join(dir, "scans-2021-05.idx")
			if tc.corrupt != nil {
				b, err := os.ReadFile(idxPath)
				if err != nil {
					t.Fatal(err)
				}
				var sc sidecar
				if err := json.Unmarshal(b, &sc); err != nil {
					t.Fatal(err)
				}
				if len(sc.Blocks) < 2 {
					t.Fatalf("fixture too small: %d blocks", len(sc.Blocks))
				}
				tc.corrupt(t, &sc)
				out, err := json.Marshal(sc)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(idxPath, out, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"-store", dir, "verify"}, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantCode != 0 && !strings.Contains(stderr.String(), "FAILED") {
				t.Fatalf("failure not reported on stderr: %s", stderr.String())
			}
		})
	}
}

// TestVerifyCorruptPayloadExitStatus flips a byte inside a committed
// block: the row pass hits the gzip CRC failure and verify must exit
// non-zero.
func TestVerifyCorruptPayloadExitStatus(t *testing.T) {
	dir := t.TempDir()
	buildVerifyStore(t, dir)
	part := filepath.Join(dir, "scans-2021-05.jsonl.gz")
	b, err := os.ReadFile(part)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(part, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-store", dir, "verify"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr.String())
	}
}

// TestVerifyAndRepairKilledCollector drives the two commands over what
// a killed checkpointing collector leaves: verify replays the journal
// and says so; a journal damaged mid-file makes every command fail at
// Open until repair truncates it.
func TestVerifyAndRepairKilledCollector(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Put(verifyEnvelope(i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the collector was killed.
	journal := filepath.Join(dir, "checkpoint.log")
	intact, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-store", dir, "verify"}, &stdout, &stderr); code != 0 {
		t.Fatalf("verify over a journal: exit %d\nstderr: %s", code, stderr.String())
	}
	// Rows of blocks that filled before the kill are sealed; only the
	// still-pending ones are re-fed.
	if !strings.Contains(stdout.String(), "verified 12 rows") ||
		!regexp.MustCompile(`store_journal_replayed_rows_total=[1-9]\d* store_journal_torn_tail_total=0`).MatchString(stdout.String()) {
		t.Fatalf("verify output: %s", stdout.String())
	}

	damaged := append([]byte(nil), intact...)
	damaged[len(damaged)/2] ^= 0xFF
	if err := os.WriteFile(journal, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-store", dir, "verify"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "journal corrupt") {
		t.Fatalf("verify over a damaged journal: exit %d\nstderr: %s", code, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-store", dir, "repair"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "journal bytes truncated") {
		t.Fatalf("repair: exit %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	stdout.Reset()
	if code := run([]string{"-store", dir, "verify"}, &stdout, &stderr); code != 0 {
		t.Fatalf("verify after repair: exit %d\nstderr: %s", code, stderr.String())
	}
}
