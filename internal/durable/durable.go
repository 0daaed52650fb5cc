// Package durable is the one way this module replaces a state file:
// stats.json, samples.jsonl.gz, the index sidecars, checkpoint.log and
// both cursors all go through WriteFile, so a crash or a failed write
// leaves each of them either its old version or its new one, never a
// torn mix.
//
// WriteFile stages the new bytes in TempPath(path), fsyncs that file
// when asked, and renames it over path. It never fsyncs the directory:
// a caller that needs the rename itself to survive a power loss calls
// SyncPath on the directory, once, after however many replacements.
//
// Failure rule: a failed fill or fsync removes the temp file, as does a
// failed close or rename of one that was not fsynced. A temp file that
// was fully written and fsynced stays when only the close or the rename
// fails: it holds a complete newer version, and a reader that knows
// TempPath (feed.FileCursor.Load) may take it as the newer state. The
// next WriteFile of the same path truncates it.
package durable

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// TempPath is the name WriteFile stages path's new contents under.
func TempPath(path string) string { return path + ".tmp" }

// WriteFile replaces path with what fill writes. With sync the new
// bytes are fsynced before the rename, so the rename cannot promote a
// file a power loss would tear. Errors are the os package's, which name
// the operation and the file, or fill's own.
func WriteFile(path string, sync bool, fill func(io.Writer) error) error {
	tmp := TempPath(path)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = fill(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	err = f.Close()
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil && !sync {
		os.Remove(tmp)
	}
	return err
}

// Bytes is a WriteFile fill that writes b.
func Bytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// SyncPath fsyncs a file or directory by name. Dirty pages belong to
// the inode, so this covers writes made through any descriptor. Its
// errors are the os package's.
func SyncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// Filesystems that cannot fsync a directory say EINVAL; there is
	// nothing further to ask of them.
	if errors.Is(err, syscall.EINVAL) {
		return nil
	}
	return err
}
