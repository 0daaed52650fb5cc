package feed

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vtdynamics/internal/durable"
)

// A 14-month collection campaign will be interrupted — the paper's
// authors polled every minute for over 400 days. A Cursor persists
// the collection frontier so a restarted collector resumes exactly at
// the first unfetched slice, neither losing nor double-storing
// reports.

// Cursor stores the end of the last fully collected slice.
type Cursor interface {
	// Load returns the stored frontier, or ok == false when no
	// progress has been recorded yet.
	Load() (frontier time.Time, ok bool, err error)
	// Save records the new frontier. Called after each slice's
	// envelopes are durably in the sink.
	Save(frontier time.Time) error
}

// FileCursor persists the frontier as Unix seconds in a small file,
// replaced by durable.WriteFile with the temp file fsynced and no
// directory fsync.
//
// Crash recovery: a kill mid-checkpoint can leave the main file
// truncated or the temp file (durable.TempPath) orphaned at any stage,
// and a Save whose rename fails leaves its fsynced temp file in place.
// Load therefore considers both files and returns the furthest valid
// frontier it finds, ignoring whichever is torn. That is always safe —
// never a gap, at worst a re-fetch — because Save is only called after
// the slice's envelopes are durably in the sink: the frontier is
// monotone and every value ever written to either file was durable
// when written, so the max of the surviving values is a frontier the
// sink has fully absorbed.
type FileCursor struct {
	Path string
}

// readFrontier parses one cursor file; ok is false when the file is
// missing or torn (unreadable content is recovery input here, not an
// error — the companion file may still hold a good frontier).
func readFrontier(path string) (time.Time, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return time.Time{}, false
	}
	sec, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
	if err != nil {
		return time.Time{}, false
	}
	return time.Unix(sec, 0).UTC(), true
}

// Load implements Cursor.
func (c *FileCursor) Load() (time.Time, bool, error) {
	main, mainOK := readFrontier(c.Path)
	tmp, tmpOK := readFrontier(durable.TempPath(c.Path))
	switch {
	case mainOK && tmpOK:
		if tmp.After(main) {
			return tmp, true, nil
		}
		return main, true, nil
	case mainOK:
		return main, true, nil
	case tmpOK:
		return tmp, true, nil
	}
	return time.Time{}, false, nil
}

// Save implements Cursor.
func (c *FileCursor) Save(frontier time.Time) error {
	data := []byte(strconv.FormatInt(frontier.Unix(), 10) + "\n")
	// fsync before rename: otherwise a crash can promote a zero-length
	// temp file over a good cursor.
	if err := durable.WriteFile(c.Path, true, durable.Bytes(data)); err != nil {
		return fmt.Errorf("feed: cursor: %w", err)
	}
	return nil
}

// CursorFunc adapts a load/save function pair to Cursor — handy for
// wrapping a Cursor with extra behavior (cmd/vtcollect flushes the
// store before each checkpoint this way).
type CursorFunc struct {
	LoadFn func() (time.Time, bool, error)
	SaveFn func(frontier time.Time) error
}

// Load implements Cursor.
func (c CursorFunc) Load() (time.Time, bool, error) { return c.LoadFn() }

// Save implements Cursor.
func (c CursorFunc) Save(frontier time.Time) error { return c.SaveFn(frontier) }

// MemCursor is an in-memory Cursor for tests and single-process runs.
type MemCursor struct {
	frontier time.Time
	set      bool
}

// Load implements Cursor.
func (c *MemCursor) Load() (time.Time, bool, error) { return c.frontier, c.set, nil }

// Save implements Cursor.
func (c *MemCursor) Save(t time.Time) error {
	c.frontier = t
	c.set = true
	return nil
}

// ErrCursorAhead is returned when the stored frontier lies beyond the
// requested window end — the caller is probably resuming with the
// wrong window.
var ErrCursorAhead = errors.New("feed: cursor frontier beyond window end")

// RunResumable is Run with checkpointing: it starts from the cursor's
// frontier when one is stored (otherwise from start) and saves the
// frontier after every slice, so a crashed or cancelled run can be
// re-invoked with the same arguments and will complete the window
// exactly once. With Workers > 1 fetches overlap, but commits (and
// therefore checkpoints) stay in slice order, so the exactly-once
// guarantee is unchanged.
func (c *Collector) RunResumable(ctx context.Context, start, end time.Time, cursor Cursor) (Stats, error) {
	return c.collect(ctx, start, end, cursor)
}
