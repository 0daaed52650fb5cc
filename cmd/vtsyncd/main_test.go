package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	}{
		{"leader ok", []string{"-mode", "leader", "-store", "d"}, false},
		{"follower ok", []string{"-mode", "follower", "-store", "d", "-leader", "http://x"}, false},
		{"follower once", []string{"-mode", "follower", "-store", "d", "-leader", "http://x", "-once"}, false},
		{"missing mode", []string{"-store", "d"}, true},
		{"unknown mode", []string{"-mode", "proxy", "-store", "d"}, true},
		{"missing store", []string{"-mode", "leader"}, true},
		{"follower without leader", []string{"-mode", "follower", "-store", "d"}, true},
		{"leader with -leader", []string{"-mode", "leader", "-store", "d", "-leader", "http://x"}, true},
		{"bad fault rate", []string{"-mode", "leader", "-store", "d", "-fault500", "1.5"}, true},
		{"bad interval", []string{"-mode", "follower", "-store", "d", "-leader", "http://x", "-interval", "-1s"}, true},
		{"stray argument", []string{"-mode", "leader", "-store", "d", "extra"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if (err != nil) != tc.wantErr {
				t.Fatalf("parseFlags(%v) err = %v, wantErr %v", tc.args, err, tc.wantErr)
			}
		})
	}
}

func TestParseFlagsCursorDefault(t *testing.T) {
	opts, err := parseFlags([]string{"-mode", "follower", "-store", "rep", "-leader", "http://x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join("rep", "sync.cursor"); opts.cursor != want {
		t.Fatalf("cursor = %q, want %q", opts.cursor, want)
	}
	opts, err = parseFlags([]string{"-mode", "follower", "-store", "rep", "-leader", "http://x", "-cursor", "/tmp/c"})
	if err != nil {
		t.Fatal(err)
	}
	if opts.cursor != "/tmp/c" {
		t.Fatalf("cursor = %q", opts.cursor)
	}
}

func syncdEnvelope(sha string, at time.Time, rank int) report.Envelope {
	results := []report.EngineResult{
		{Engine: "Avast", Verdict: report.Benign, SignatureVersion: 3},
	}
	for i := 0; i < rank; i++ {
		results = append(results, report.EngineResult{
			Engine:  fmt.Sprintf("Det%02d", i),
			Verdict: report.Malicious, Label: "Trojan.Gen", SignatureVersion: 1,
		})
	}
	return report.Envelope{
		Meta: report.SampleMeta{
			SHA256: sha, FileType: "Win32 EXE", Size: 2048,
			FirstSubmissionDate: at, LastAnalysisDate: at,
			LastSubmissionDate: at, TimesSubmitted: 1,
		},
		Scan: report.ScanReport{
			SHA256: sha, FileType: "Win32 EXE", AnalysisDate: at,
			Results: results, AVRank: rank, EnginesTotal: rank + 1,
		},
	}
}

// fillLeader puts 20 single-report samples into st.
func fillLeader(t *testing.T, st *store.Store) {
	t.Helper()
	base := time.Date(2021, 5, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if err := st.Put(syncdEnvelope(fmt.Sprintf("e2e%03d", i), base.Add(time.Duration(i)*time.Hour), i%4)); err != nil {
			t.Fatal(err)
		}
	}
}

// replicate drives the two run() modes against each other in-process:
// a leader over leaderDir on a random port, a follower -once into a
// fresh directory (twice: the second pass is a no-op that must still
// succeed), then the leader's shutdown on interrupt. It returns the
// replica directory.
func replicate(t *testing.T, leaderDir string) string {
	t.Helper()
	leaderOut := &lockedBuffer{}
	leaderDone := make(chan int, 1)
	go func() {
		leaderDone <- run([]string{"-mode", "leader", "-store", leaderDir, "-addr", "127.0.0.1:0",
			"-fault503", "0.2", "-seed", "7"}, leaderOut, os.Stderr)
	}()

	// Wait for the readiness line to learn the port.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("leader never announced; output %q", leaderOut.String())
		}
		out := leaderOut.String()
		if i := strings.Index(out, " on "); i >= 0 {
			if j := strings.Index(out[i+4:], "\n"); j >= 0 {
				addr = strings.TrimSpace(out[i+4 : i+4+j])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	followerDir := t.TempDir()
	for pass := 1; pass <= 2; pass++ {
		var followerOut, followerErr bytes.Buffer
		code := run([]string{"-mode", "follower", "-store", followerDir,
			"-leader", "http://" + addr, "-once"}, &followerOut, &followerErr)
		if code != 0 {
			t.Fatalf("follower pass %d exit %d: %s", pass, code, followerErr.String())
		}
		if !strings.Contains(followerOut.String(), "caught up") {
			t.Fatalf("follower output %q", followerOut.String())
		}
	}

	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-leaderDone:
		if code != 0 {
			t.Fatalf("leader exit %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("leader did not shut down on interrupt")
	}
	return followerDir
}

// TestLeaderFollowerEndToEnd replicates a closed store through the two
// daemons and compares the directories file for file.
func TestLeaderFollowerEndToEnd(t *testing.T) {
	leaderDir := t.TempDir()
	st, err := store.Open(leaderDir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillLeader(t, st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	followerDir := replicate(t, leaderDir)

	// Byte parity, ignoring the follower's cursor file.
	want := hashDir(t, leaderDir)
	got := hashDir(t, followerDir)
	delete(got, "sync.cursor")
	if len(want) != len(got) {
		t.Fatalf("leader has %d files, follower %d", len(want), len(got))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("file %s differs after e2e sync", name)
		}
	}
}

// TestLeaderOverKilledCollectorDirectory points the leader daemon at
// what a killed, checkpointing collector left: rows acknowledged by its
// last Sync sit in checkpoint.log, in no sealed block. The daemon seals
// them before it serves, so the replica holds every acknowledged row,
// verifies, and matches the leader's partitions and sidecars file for
// file; the journal stays behind as the leader's own recovery state.
func TestLeaderOverKilledCollectorDirectory(t *testing.T) {
	leaderDir := t.TempDir()
	st, err := store.Open(leaderDir, store.WithBlockSize(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	fillLeader(t, st)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// st is abandoned un-Closed, like a killed process.
	followerDir := replicate(t, leaderDir)

	want := hashDir(t, leaderDir)
	got := hashDir(t, followerDir)
	if _, ok := want["checkpoint.log"]; !ok {
		t.Fatal("killed collector left no checkpoint journal; the test proves nothing")
	}
	for name, sum := range want {
		if !strings.HasPrefix(name, "scans-") {
			continue // snapshots are served from memory; the journal is not replicated
		}
		if got[name] != sum {
			t.Fatalf("file %s differs on the replica of a killed directory", name)
		}
	}
	if _, ok := got["checkpoint.log"]; ok {
		t.Fatal("the journal was replicated")
	}
	replica, err := store.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := replica.Verify(); err != nil || n != 20 {
		t.Fatalf("replica of a killed directory: %d rows verified, %v", n, err)
	}
}

// lockedBuffer serializes the leader goroutine's writes against the
// test's readiness polling.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func hashDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return out
}
