package store

import (
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Cross-version conformance suite, after mcap's conformance runners:
// an abstract writer side (format variants — ways a store fixture can
// come to exist on disk) crossed with an abstract reader side (reader
// configurations — this build, and a simulated v1-era build). Every
// supported (variant, reader) pair must serve the exact golden rows;
// every unsupported pair must be rejected with the typed
// ErrUnsupportedFormat, never misread.

// formatVariant is the write side: one way of materializing the
// golden dataset into a directory.
type formatVariant struct {
	name string
	// maxVer is the newest block format the variant's bytes contain.
	maxVer int
	// write materializes the golden dataset into dir.
	write func(t *testing.T, dir string)
}

// readRunner is the read side: one reader configuration.
type readRunner struct {
	name string
	// maxFormat caps what this reader understands (a v1-era build is
	// simulated by capping at FormatV1).
	maxFormat int
}

// supportsVariant reports whether the reader must succeed on the
// variant; unsupported pairs must fail with ErrUnsupportedFormat.
func (r readRunner) supportsVariant(v formatVariant) bool {
	return v.maxVer <= r.maxFormat
}

// open opens dir under this runner's format cap.
func (r readRunner) open(dir string) (*Store, error) {
	return Open(dir, withMaxFormat(r.maxFormat))
}

func conformanceVariants() []formatVariant {
	return []formatVariant{
		{
			name:   "writer-v1",
			maxVer: FormatV1,
			write: func(t *testing.T, dir string) {
				// A v1 store a v2 build has opened and closed: Open
				// indexed it, Close persisted the sidecars.
				writeGoldenV1(t, dir, WithBlockSize(2<<10))
				reopen(t, dir)
			},
		},
		{
			name:   "writer-v1-no-sidecar",
			maxVer: FormatV1,
			write: func(t *testing.T, dir string) {
				writeGoldenV1(t, dir, WithBlockSize(2<<10))
			},
		},
		{
			name:   "writer-v2",
			maxVer: FormatV2,
			write: func(t *testing.T, dir string) {
				writeGoldenStore(t, dir, WithBlockSize(2<<10))
			},
		},
		{
			name:   "writer-v2-no-sidecar",
			maxVer: FormatV2,
			write: func(t *testing.T, dir string) {
				writeGoldenStore(t, dir, WithBlockSize(2<<10))
				stripSidecars(t, dir)
			},
		},
		{
			name:   "v1-migrated-to-v2",
			maxVer: FormatV2,
			write: func(t *testing.T, dir string) {
				writeGoldenV1(t, dir, WithBlockSize(2<<10))
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Migrate(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:   "mixed-v1-then-v2-members",
			maxVer: FormatV2,
			write: func(t *testing.T, dir string) {
				// First half of the dataset written v1, second half
				// appended by a v2 build: months hold members of both
				// formats side by side.
				envs := goldenEnvelopes()
				s1, err := Open(dir, WithBlockSize(2<<10))
				if err != nil {
					t.Fatal(err)
				}
				for _, env := range envs[:goldenFlushAt+1] {
					if err := s1.Put(env); err != nil {
						t.Fatal(err)
					}
				}
				if err := s1.Close(); err != nil {
					t.Fatal(err)
				}
				writeV1Store(t, dir)
				s2, err := Open(dir, WithBlockSize(2<<10))
				if err != nil {
					t.Fatal(err)
				}
				for _, env := range envs[goldenFlushAt+1:] {
					if err := s2.Put(env); err != nil {
						t.Fatal(err)
					}
				}
				if err := s2.Close(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:   "golden-v1-fixture",
			maxVer: FormatV1,
			write: func(t *testing.T, dir string) {
				copyFixtureInto(t, goldenDir, dir)
			},
		},
		{
			name:   "golden-v2-fixture",
			maxVer: FormatV2,
			write: func(t *testing.T, dir string) {
				copyFixtureInto(t, goldenDirV2, dir)
			},
		},
	}
}

func conformanceReaders() []readRunner {
	return []readRunner{
		{name: "current", maxFormat: formatMax},
		{name: "v1-era", maxFormat: FormatV1},
	}
}

func stripSidecars(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.idx"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			t.Fatal(err)
		}
	}
}

func copyFixtureInto(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("fixture %s missing: %v", src, err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConformanceMatrix runs every (variant, reader) pair. Supported
// pairs must serve exactly the golden rows through Get, iteration,
// StatsByType, and Verify; unsupported pairs (v2 bytes under a v1-era
// reader) must be rejected at Open with ErrUnsupportedFormat.
func TestConformanceMatrix(t *testing.T) {
	want := goldenExpect()
	for _, variant := range conformanceVariants() {
		variant := variant
		for _, reader := range conformanceReaders() {
			reader := reader
			t.Run(variant.name+"/"+reader.name, func(t *testing.T) {
				dir := t.TempDir()
				variant.write(t, dir)
				s, err := reader.open(dir)
				if !reader.supportsVariant(variant) {
					if err == nil {
						t.Fatalf("v%d-capped reader opened a v%d store", reader.maxFormat, variant.maxVer)
					}
					if !errors.Is(err, ErrUnsupportedFormat) {
						t.Fatalf("rejection is not typed: %v", err)
					}
					var fe *FormatError
					if !errors.As(err, &fe) {
						t.Fatalf("rejection is not a *FormatError: %v", err)
					}
					if fe.Version != variant.maxVer || fe.Max != reader.maxFormat {
						t.Fatalf("FormatError fields: %+v (want Version=%d Max=%d)", fe, variant.maxVer, reader.maxFormat)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				gotHist, _, stats := snapshotReads(t, s)
				if !reflect.DeepEqual(gotHist, want) {
					t.Fatalf("histories diverge from golden rows:\n got %+v\nwant %+v", gotHist, want)
				}
				if stats.Reports != len(goldenEnvelopes()) {
					t.Fatalf("stats report %d rows, want %d", stats.Reports, len(goldenEnvelopes()))
				}
				byType, err := s.StatsByType()
				if err != nil {
					t.Fatal(err)
				}
				ts := byType["Win32 EXE"]
				if ts.Samples != 8 || ts.Reports != 24 {
					t.Fatalf("StatsByType = %+v, want 8 samples / 24 reports", ts)
				}
				if n, err := s.Verify(); err != nil || n != 24 {
					t.Fatalf("Verify: %d, %v", n, err)
				}
			})
		}
	}
}

// TestConformanceQueryEquivalence pins that every supported variant
// serves byte-identical query results — the same dataset must be
// indistinguishable through the read API regardless of which format
// (or migration path) produced the bytes.
func TestConformanceQueryEquivalence(t *testing.T) {
	type snap struct {
		hist  map[string]string
		iter  map[string][]int
		stats PartitionStats
	}
	var base *snap
	var baseName string
	for _, variant := range conformanceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			dir := t.TempDir()
			variant.write(t, dir)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			hist, iter, stats := snapshotReads(t, s)
			flat := make(map[string]string, len(hist))
			for sha, h := range hist {
				flat[sha] = fmt.Sprintf("%+v", h.Meta)
				for _, r := range h.Reports {
					flat[sha] += fmt.Sprintf("|%+v", *r)
				}
			}
			cur := &snap{hist: flat, iter: iter, stats: stats}
			// StoredBytes legitimately differs across formats; the
			// logical accounting must not.
			cur.stats.StoredBytes = 0
			if base == nil {
				base, baseName = cur, variant.name
				return
			}
			if !reflect.DeepEqual(base, cur) {
				t.Fatalf("%s and %s serve different query results", baseName, variant.name)
			}
		})
	}
}

// TestUnknownFormatRejected covers data from the future: a block
// tagged v3 — in the sidecar, in the member bytes, or both — must be
// rejected with the typed error on every path (Open, Reindex), never
// silently misread or treated as a stale sidecar to rebuild past.
func TestUnknownFormatRejected(t *testing.T) {
	futureMember := append([]byte(colMagic), formatMax+1)
	futureMember = append(futureMember, []byte("opaque-payload-from-the-future")...)

	writeFutureStore := func(t *testing.T, withSidecar bool) string {
		t.Helper()
		dir := t.TempDir()
		writeGoldenStore(t, dir, WithBlockSize(2<<10))
		month := "2021-05"
		path := filepath.Join(dir, "scans-"+month+".jsonl.gz")
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		start, err := f.Seek(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		if _, err := zw.Write(futureMember); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		end, err := f.Seek(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if !withSidecar {
			stripSidecars(t, dir)
			return dir
		}
		// Extend the sidecar to cover the new member, declaring its
		// (future) version — what a newer build would have written.
		ix, ok, err := loadSidecar(dir, month, start, formatMax)
		if err != nil || !ok {
			t.Fatalf("sidecar reload: %v %v", ok, err)
		}
		ix.appendBlock(blockMeta{Offset: start, Len: end - start, Rows: 1, Raw: 1, Ver: formatMax + 1}, map[string]int{"future": 1})
		if err := ix.writeSidecar(dir, month); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("sidecar-declared", func(t *testing.T) {
		dir := writeFutureStore(t, true)
		_, err := Open(dir)
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("Open = %v, want ErrUnsupportedFormat", err)
		}
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Version != formatMax+1 || fe.Max != formatMax {
			t.Fatalf("FormatError = %+v", fe)
		}
	})

	t.Run("sniffed-without-sidecar", func(t *testing.T) {
		dir := writeFutureStore(t, false)
		_, err := Open(dir)
		if !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("Open = %v, want ErrUnsupportedFormat", err)
		}
	})

	t.Run("reindex", func(t *testing.T) {
		// Reindex rebuilds sidecars by walking members; the walk must
		// reject the future one with the same typed error.
		dir := writeFutureStore(t, false)
		_, _, torn, err := indexPartition(filepath.Join(dir, "scans-2021-05.jsonl.gz"), formatMax)
		var fe *FormatError
		if err != nil || !errors.As(torn, &fe) || fe.Version != formatMax+1 {
			t.Fatalf("indexPartition stopped with %v (err %v), want FormatError v%d", torn, err, formatMax+1)
		}
		// RepairDir must refuse too: the member is intact data from a
		// newer build, never a torn tail to truncate.
		if _, err := RepairDir(dir); !errors.Is(err, ErrUnsupportedFormat) {
			t.Fatalf("RepairDir = %v, want ErrUnsupportedFormat", err)
		}
	})

	t.Run("error-message-names-versions", func(t *testing.T) {
		fe := &FormatError{Path: "p", Version: 3, Max: 2}
		msg := fe.Error()
		for _, want := range []string{"v3", "v2", "p"} {
			if !strings.Contains(msg, want) {
				t.Fatalf("error %q does not mention %q", msg, want)
			}
		}
	})
}
