package sync

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vtdynamics/internal/obs"
	"vtdynamics/internal/store"
)

// The golden mixed-format fixture is a partially-migrated store: its
// first campaign was written by a build that wrote v1 blocks, a later
// campaign appended v2 blocks to the same months. It is checked in
// under testdata/mixed with a SHA256SUMS manifest and is frozen: no
// build writes v1 any more, so it cannot be regenerated.
//
// The fixture pins the exact bytes a replication follower must
// reproduce, so format-dispatch regressions (a v2 reader "fixing" v1
// bytes in transit, or vice versa) surface as a parity diff against
// history, not just against a freshly built leader.
const mixedFixtureDir = "testdata/mixed"

// blockVersions maps month -> set of block format versions present.
func blockVersions(t *testing.T, st *store.Store) map[string]map[int]bool {
	t.Helper()
	out := make(map[string]map[int]bool)
	for month, ms := range st.ReplState() {
		vers := make(map[int]bool)
		refs, err := st.BlocksSince(month, 0, ms.Blocks, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			vers[ref.Ver] = true
		}
		out[month] = vers
	}
	return out
}

// TestMixedFormatReplicationParity replicates the golden partially-
// migrated fixture into an empty follower and requires byte parity,
// proving the sync path never transcodes across the v1/v2 boundary.
func TestMixedFormatReplicationParity(t *testing.T) {
	// The checked-in bytes must match their manifest — a drifted
	// fixture would make the parity proof circular.
	sums, err := os.ReadFile(filepath.Join(mixedFixtureDir, "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(sums)), "\n") {
		parts := strings.Fields(line)
		if len(parts) != 2 {
			t.Fatalf("bad SHA256SUMS line %q", line)
		}
		want[parts[1]] = parts[0]
	}
	got := dirHashes(t, mixedFixtureDir, "SHA256SUMS")
	if len(got) != len(want) {
		t.Fatalf("fixture has %d files, manifest lists %d", len(got), len(want))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Fatalf("fixture file %s drifted from SHA256SUMS", name)
		}
	}

	lst, err := store.Open(mixedFixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	// The leader really is mixed: every month holds both formats.
	for month, vers := range blockVersions(t, lst) {
		if !vers[store.FormatV1] || !vers[store.FormatV2] {
			t.Fatalf("fixture month %s not mixed: versions %v", month, vers)
		}
	}

	srv := leaderServer(t, lst, nil, obs.NewRegistry())
	followerDir := t.TempDir()
	fst, err := store.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(fst, srv.URL, obs.NewRegistry())
	f.CursorPath = filepath.Join(t.TempDir(), "sync.cursor")
	if _, err := f.CatchUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertParity(t, mixedFixtureDir, followerDir, "SHA256SUMS")

	// The replica preserves the per-block format split and reads
	// rows from both sides of the migration boundary.
	rst, err := store.Open(followerDir)
	if err != nil {
		t.Fatal(err)
	}
	for month, vers := range blockVersions(t, rst) {
		if !vers[store.FormatV1] || !vers[store.FormatV2] {
			t.Fatalf("replica month %s lost the format mix: %v", month, vers)
		}
	}
	if _, err := rst.Verify(); err != nil {
		t.Fatalf("replica verify: %v", err)
	}
	for _, sha := range []string{"mix003", "mix037"} {
		h, err := rst.Get(sha)
		if err != nil || len(h.Reports) != 1 {
			t.Fatalf("replica read %s: %v %v", sha, h, err)
		}
	}
}
