package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildReplStore fills dir with a closed, indexed store in the given
// block format spanning two months and many small blocks (tiny block
// size forces several members per partition), returning the sample
// hashes written.
func buildReplStore(t *testing.T, dir string, format int) []string {
	t.Helper()
	s, err := Open(dir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	var shas []string
	for i := 0; i < 40; i++ {
		sha := fmt.Sprintf("repl%03d", i)
		shas = append(shas, sha)
		at := t0.Add(time.Duration(i) * time.Hour)
		if i%2 == 1 {
			at = at.AddDate(0, 1, 0) // second month
		}
		if err := s.Put(envelope(sha, at, i%7)); err != nil {
			t.Fatal(err)
		}
		if i == 17 {
			// A mid-campaign checkpoint and publish: Sync journals (the
			// journal is never replicated, and Close folds it away), Flush
			// cuts members at a different cadence than the final one,
			// exercising multi-member replication.
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if format == FormatV1 {
		writeV1Store(t, dir)
		reopen(t, dir)
	}
	return shas
}

// dirFileHashes maps each regular file in dir to its SHA-256.
func dirFileHashes(t *testing.T, dir string) map[string]string {
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
		sum := sha256.Sum256(b)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// replicate pulls every committed block from leader into follower via
// the exported replication API, in small batches, then applies the
// state snapshots and persists sidecars.
func replicate(t *testing.T, leader, follower *Store) {
	t.Helper()
	state := leader.ReplState()
	months := make([]string, 0, len(state))
	for m := range state {
		months = append(months, m)
	}
	have := follower.ReplState()
	for _, month := range months {
		seq := have[month].Blocks
		for {
			refs, err := leader.BlocksSince(month, seq, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(refs) == 0 {
				break
			}
			data := make([][]byte, len(refs))
			for i, ref := range refs {
				if data[i], err = leader.ReadBlock(ref); err != nil {
					t.Fatal(err)
				}
			}
			if err := follower.ApplyBlocks(month, refs, data); err != nil {
				t.Fatal(err)
			}
			seq = refs[len(refs)-1].Seq + 1
		}
	}
	if err := follower.Sync(); err != nil {
		t.Fatal(err)
	}
	var samples bytes.Buffer
	if err := leader.WriteSamplesSnapshot(&samples); err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplySamplesSnapshot(samples.Bytes()); err != nil {
		t.Fatal(err)
	}
	stats, err := leader.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyStatsSnapshot(stats); err != nil {
		t.Fatal(err)
	}
}

func TestReplicationRoundTripParity(t *testing.T) {
	for _, format := range []int{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			leaderDir := t.TempDir()
			shas := buildReplStore(t, leaderDir, format)
			leader, err := Open(leaderDir)
			if err != nil {
				t.Fatal(err)
			}
			followerDir := t.TempDir()
			follower, err := Open(followerDir)
			if err != nil {
				t.Fatal(err)
			}
			replicate(t, leader, follower)

			want := dirFileHashes(t, leaderDir)
			got := dirFileHashes(t, followerDir)
			if len(want) != len(got) {
				t.Fatalf("file sets differ: leader %v follower %v", want, got)
			}
			for name, h := range want {
				if got[name] != h {
					t.Errorf("%s: leader %s follower %s", name, h, got[name])
				}
			}

			// The replica serves reads immediately, without reopening.
			for _, sha := range shas {
				lh, err := leader.Get(sha)
				if err != nil {
					t.Fatal(err)
				}
				fh, err := follower.Get(sha)
				if err != nil {
					t.Fatalf("follower Get(%s): %v", sha, err)
				}
				if len(lh.Reports) != len(fh.Reports) {
					t.Fatalf("%s: leader %d reports, follower %d", sha, len(lh.Reports), len(fh.Reports))
				}
			}

			// And a reopened replica is a verifiable store whose own
			// sidecars Open trusts as they are.
			reopened, _, rebuilds := openCounting(t, followerDir)
			if rebuilds != 0 {
				t.Fatalf("reopened follower rebuilt %d indexes", rebuilds)
			}
			if _, err := reopened.Verify(); err != nil {
				t.Fatalf("reopened follower Verify: %v", err)
			}
		})
	}
}

func TestReplicationIncrementalCatchUp(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir, WithBlockSize(2<<10))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := leader.Put(envelope(fmt.Sprintf("inc%03d", i), t0.Add(time.Duration(i)*time.Hour), 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint, then publish: Sync alone cuts nothing, and only sealed
	// blocks replicate.
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower)
	first := follower.ReplState()

	// Leader keeps writing; the follower catches up from its cursor.
	for i := 20; i < 40; i++ {
		if err := leader.Put(envelope(fmt.Sprintf("inc%03d", i), t0.Add(time.Duration(i)*time.Hour), 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Flush(); err != nil {
		t.Fatal(err)
	}
	replicate(t, leader, follower)
	second := follower.ReplState()

	month := MonthKey(t0)
	if second[month].Blocks <= first[month].Blocks {
		t.Fatalf("no catch-up progress: %+v then %+v", first[month], second[month])
	}
	if got, want := second[month], leader.ReplState()[month]; got != want {
		t.Fatalf("follower at %+v, leader at %+v", got, want)
	}
}

// gzipMember compresses payload as one closed gzip member.
func gzipMember(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestApplyBlocksRejectsMismatches(t *testing.T) {
	leaderDir := t.TempDir()
	buildReplStore(t, leaderDir, FormatV2)
	leader, err := Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	month := MonthKey(t0)
	refs, err := leader.BlocksSince(month, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) < 2 {
		t.Fatalf("need at least 2 blocks, have %d", len(refs))
	}
	block0, err := leader.ReadBlock(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	block1, err := leader.ReadBlock(refs[1])
	if err != nil {
		t.Fatal(err)
	}

	freshFollower := func(t *testing.T) *Store {
		f, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	cases := []struct {
		name    string
		refs    func() []ReplBlock
		data    func() [][]byte
		wantErr error
	}{
		{
			name: "out of order seq",
			refs: func() []ReplBlock { return []ReplBlock{refs[1]} },
			data: func() [][]byte { return [][]byte{block1} },
		},
		{
			name: "wrong offset",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Offset += 7
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{block0} },
		},
		{
			name: "inflated row count",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Rows++
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{block0} },
		},
		{
			name: "wrong raw bytes",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Raw += 100
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{block0} },
		},
		{
			name: "lying version tag",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Ver = FormatV1
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{block0} },
		},
		{
			name: "truncated member",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Len -= 3
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{block0[:len(block0)-3]} },
		},
		{
			name: "trailing second member",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Len = int64(len(block0) + len(block1))
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{append(append([]byte(nil), block0...), block1...)} },
		},
		{
			name: "not gzip at all",
			refs: func() []ReplBlock {
				r := refs[0]
				r.Len = 8
				return []ReplBlock{r}
			},
			data: func() [][]byte { return [][]byte{[]byte("plainrow")} },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := freshFollower(t)
			err := f.ApplyBlocks(month, tc.refs(), tc.data())
			if !errors.Is(err, ErrReplMismatch) {
				t.Fatalf("got %v, want ErrReplMismatch", err)
			}
			// Nothing may have landed.
			if st := f.ReplState(); len(st) != 0 && st[month].Blocks != 0 {
				t.Fatalf("rejected block left state %+v", st)
			}
		})
	}

	t.Run("future format payload", func(t *testing.T) {
		f := freshFollower(t)
		member := gzipMember(t, []byte(colMagic+"\x09future-block"))
		ref := ReplBlock{Month: month, Seq: 0, Offset: 0, Len: int64(len(member)), Rows: 1, Raw: 10, Ver: 9}
		err := f.ApplyBlocks(month, []ReplBlock{ref}, [][]byte{member})
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("got %v, want ErrUnsupportedFormat", err)
		}
	})

	t.Run("bad month keys", func(t *testing.T) {
		f := freshFollower(t)
		for _, bad := range []string{"", "2021", "2021-5", "20-21-05", "../../21", "2021-0x", "2021/05"} {
			ref := refs[0]
			ref.Month = bad
			if err := f.ApplyBlocks(bad, []ReplBlock{ref}, [][]byte{block0}); err == nil {
				t.Errorf("month %q accepted", bad)
			}
		}
	})

	t.Run("replay after apply", func(t *testing.T) {
		f := freshFollower(t)
		if err := f.ApplyBlocks(month, []ReplBlock{refs[0]}, [][]byte{block0}); err != nil {
			t.Fatal(err)
		}
		if err := f.ApplyBlocks(month, []ReplBlock{refs[0]}, [][]byte{block0}); !errors.Is(err, ErrReplMismatch) {
			t.Fatalf("replay got %v, want ErrReplMismatch", err)
		}
		// The next block still applies cleanly after the rejected replay.
		if err := f.ApplyBlocks(month, []ReplBlock{refs[1]}, [][]byte{block1}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestBlocksSinceBounds(t *testing.T) {
	dir := t.TempDir()
	buildReplStore(t, dir, FormatV2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	month := MonthKey(t0)
	all, err := s.BlocksSince(month, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no blocks")
	}
	// seq == count: caught up, empty, no error.
	none, err := s.BlocksSince(month, len(all), 0, 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("caught-up query: %v, %d blocks", err, len(none))
	}
	// seq past the end and negative: typed error.
	if _, err := s.BlocksSince(month, len(all)+1, 0, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("future seq: %v", err)
	}
	if _, err := s.BlocksSince(month, -1, 0, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("negative seq: %v", err)
	}
	// Unknown month: ErrUnknownMonth.
	if _, err := s.BlocksSince("1999-01", 0, 0, 0); !errors.Is(err, ErrUnknownMonth) {
		t.Fatalf("unknown month: %v", err)
	}
	// maxBlocks caps the batch.
	if got, err := s.BlocksSince(month, 0, 1, 0); err != nil || len(got) != 1 {
		t.Fatalf("maxBlocks=1: %v, %d blocks", err, len(got))
	}
	// maxBytes always yields at least one block.
	if got, err := s.BlocksSince(month, 0, 0, 1); err != nil || len(got) != 1 {
		t.Fatalf("maxBytes=1: %v, %d blocks", err, len(got))
	}
	// Stale ReadBlock ref is rejected.
	ref := all[0]
	ref.Len++
	if _, err := s.ReadBlock(ref); !errors.Is(err, ErrUnknownBlock) {
		t.Fatalf("stale ref: %v", err)
	}
}

func TestSnapshotEncodersMatchClose(t *testing.T) {
	dir := t.TempDir()
	buildReplStore(t, dir, FormatV2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteSamplesSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "samples.jsonl.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), onDisk) {
		t.Error("WriteSamplesSnapshot bytes differ from Close's samples.jsonl.gz")
	}
	stats, err := s.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	statsDisk, err := os.ReadFile(filepath.Join(dir, "stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stats, statsDisk) {
		t.Errorf("StatsJSON differs from Close's stats.json:\n%s\nvs\n%s", stats, statsDisk)
	}
}

func TestRepairDirTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	buildReplStore(t, dir, FormatV2)
	month := MonthKey(t0)
	part := filepath.Join(dir, "scans-"+month+".jsonl.gz")
	fi, err := os.Stat(part)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: garbage tail past the last committed
	// member (the sidecar no longer covers the file).
	f, err := os.OpenFile(part, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte("torn-partial-member-bytes")
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rs, err := RepairDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Repaired) != 1 || rs.Repaired[0] != month {
		t.Fatalf("Repaired = %v, want [%s]", rs.Repaired, month)
	}
	if rs.TruncatedBytes != int64(len(garbage)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, len(garbage))
	}
	if fi2, err := os.Stat(part); err != nil || fi2.Size() != fi.Size() {
		t.Fatalf("partition size %d after repair, want %d (err %v)", fi2.Size(), fi.Size(), err)
	}
	// The repaired store opens on its repaired sidecars and verifies
	// clean.
	s, _, rebuilds := openCounting(t, dir)
	if rebuilds != 0 {
		t.Fatalf("repaired store rebuilt %d indexes at Open", rebuilds)
	}
	if _, err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// A second pass is a no-op: everything already covered.
	rs2, err := RepairDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Repaired) != 0 {
		t.Fatalf("second repair touched %v", rs2.Repaired)
	}
}

func TestRepairDirTruncatesMidMember(t *testing.T) {
	dir := t.TempDir()
	buildReplStore(t, dir, FormatV1)
	month := MonthKey(t0)
	// The pristine sidecar tells us the real member boundaries.
	part := filepath.Join(dir, "scans-"+month+".jsonl.gz")
	fi, err := os.Stat(part)
	if err != nil {
		t.Fatal(err)
	}
	ix, ok, err := loadSidecar(dir, month, fi.Size(), formatMax)
	if err != nil || !ok {
		t.Fatalf("sidecar: ok=%v err=%v", ok, err)
	}
	blocks := ix.snapshotBlocks()
	if len(blocks) < 2 {
		t.Fatalf("need >= 2 blocks, have %d", len(blocks))
	}
	// Cut the file in the middle of the last member.
	last := blocks[len(blocks)-1]
	cut := last.Offset + last.Len/2
	if err := os.Truncate(part, cut); err != nil {
		t.Fatal(err)
	}
	rs, err := RepairDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Repaired) != 1 {
		t.Fatalf("Repaired = %v", rs.Repaired)
	}
	fi2, err := os.Stat(part)
	if err != nil {
		t.Fatal(err)
	}
	if fi2.Size() != last.Offset {
		t.Fatalf("repaired to %d, want last good boundary %d", fi2.Size(), last.Offset)
	}
	if rs.TruncatedBytes != cut-last.Offset {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, cut-last.Offset)
	}
	// After repair the replica can re-pull the dropped block and return
	// to exact parity: the rebuilt sidecar covers [0, last.Offset).
	ix2, ok, err := loadSidecar(dir, month, fi2.Size(), formatMax)
	if err != nil || !ok {
		t.Fatalf("rebuilt sidecar: ok=%v err=%v", ok, err)
	}
	if got := ix2.snapshotBlocks(); len(got) != len(blocks)-1 {
		t.Fatalf("rebuilt index has %d blocks, want %d", len(got), len(blocks)-1)
	}
}

func TestValidMonthKey(t *testing.T) {
	valid := []string{"2021-05", "1999-12", "0000-00"}
	invalid := []string{"", "2021", "2021-5", "2021/05", "2021-055", "x021-05", "2021-0x", "../1-05"}
	for _, m := range valid {
		if !ValidMonthKey(m) {
			t.Errorf("ValidMonthKey(%q) = false", m)
		}
	}
	for _, m := range invalid {
		if ValidMonthKey(m) {
			t.Errorf("ValidMonthKey(%q) = true", m)
		}
	}
}
