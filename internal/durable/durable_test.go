package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFailureRule pins the package's failure rule: after each
// outcome, the target holds the old or the new bytes and the temp file
// exists only when it is a complete, fsynced newer version.
func TestWriteFileFailureRule(t *testing.T) {
	errFill := errors.New("fill failed")
	old, nw := []byte("old\n"), []byte("new\n")
	halfThenFail := func(w io.Writer) error {
		w.Write(nw[:2])
		return errFill
	}
	for _, tc := range []struct {
		name     string
		sync     bool
		fill     func(io.Writer) error
		dirOnto  bool  // a directory squats on the target: the rename fails
		wantErr  error // nil: any error is wrong
		want     []byte
		wantTemp []byte // nil: the temp file must be gone
	}{
		{name: "success", fill: Bytes(nw), want: nw},
		{name: "success synced", sync: true, fill: Bytes(nw), want: nw},
		{name: "fill error", fill: halfThenFail, wantErr: errFill, want: old},
		{name: "fill error synced", sync: true, fill: halfThenFail, wantErr: errFill, want: old},
		{name: "rename onto a directory", fill: Bytes(nw), dirOnto: true},
		{name: "rename onto a directory synced", sync: true, fill: Bytes(nw), dirOnto: true, wantTemp: nw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state")
			if tc.dirOnto {
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			err := WriteFile(path, tc.sync, tc.fill)
			switch {
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			case tc.dirOnto && err == nil:
				t.Fatal("rename onto a directory succeeded")
			case tc.wantErr == nil && !tc.dirOnto && err != nil:
				t.Fatal(err)
			}
			if tc.dirOnto {
				if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
					t.Fatalf("target directory disturbed: %v", err)
				}
			} else if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.want) {
				t.Fatalf("target = %q, %v; want %q", got, err, tc.want)
			}
			got, err := os.ReadFile(TempPath(path))
			switch {
			case tc.wantTemp == nil && !os.IsNotExist(err):
				t.Fatalf("temp file left behind: %q, %v", got, err)
			case tc.wantTemp != nil && (err != nil || !bytes.Equal(got, tc.wantTemp)):
				t.Fatalf("temp file = %q, %v; want %q kept", got, err, tc.wantTemp)
			}
		})
	}
}
