// Checkpoint journal: what makes Sync cost O(delta).
//
// A checkpoint used to cut every open writer's pending rows into an
// under-filled gzip member, rewrite the month's sidecar and re-encode
// the whole sample snapshot. Now Sync appends one record to
// checkpoint.log and fsyncs that file. A record holds, for every month
// whose accounting moved since the previous record (months ascending,
// so journal bytes are a function of the input alone):
//
//   - the rows still in the writer's pending block that no earlier
//     record carries, as their JSONL lines, with the ordinal of the
//     first (rows sealed in the partition + pending rows already
//     journaled);
//   - the month's absolute accounting (reports, wire bytes, line bytes);
//
// and the latest meta of every sample Put since the previous record.
// Nothing is cut: the colBuilder keeps filling toward the block size,
// so partition bytes do not depend on whether or how often a campaign
// checkpoints.
//
// Open loads sidecars and snapshots as before and then replays the
// journal. Metas and accounting are applied; a row is re-fed to its
// month's writer only when its ordinal lies past the rows the sealed
// blocks already hold — a block that sealed after its rows were
// journaled (by filling or by Flush; reads never seal) is therefore
// never replayed twice. An invalid final stretch of the file
// is an unacknowledged Sync: it is dropped and counted, and the next
// append truncates it. Anything else invalid is ErrJournalCorrupt and
// needs RepairDir, which truncates at the last whole record.
//
// A fold retires the journal: fsync every partition that gained a block
// since its last fsync, write samples.jsonl.gz and stats.json (fsynced,
// renamed), then replace the journal by one holding only the
// still-pending rows — or, at Close, remove it. Sync folds once the
// journal exceeds journalFoldFactor × the bytes a fold writes (the
// snapshots the journal is a delta on plus the pending rows the new
// journal starts with; at least one block), so the O(store) rewrite is
// paid once per O(store) journal bytes and a checkpoint is amortised
// O(delta). A session's first Sync is a fold too when rows were Put
// before it: what Puts dirty is recorded only once a store checkpoints,
// so there is no delta to append yet, and a store that never calls
// Sync keeps no such record at all.
//
// File layout (integers little-endian, fixed width so that decoding is
// canonical): the 8-byte magic, then frames of u32 payload length,
// u32 CRC-32C of the payload, payload. A payload is
//
//	u32 months, each: 7-byte key | u64 sealed rows | u64 journaled
//	    pending rows | u64 reports | u64 raw bytes | u64 line bytes |
//	    u32 rows | u32 len | that many bytes of '\n'-terminated lines
//	u32 metas, each: u32 len, sha | u32 len, file type | u64 size |
//	    u64 first | u64 last analysis | u64 last submission | u64 times
//
// The journal is local recovery state: replication manifests list only
// sealed, index-covered blocks, and a follower never writes one. Sync
// therefore does not publish — the rows it journals are in no block a
// Leader's manifest lists — and Flush, which seals them, does.
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vtdynamics/internal/durable"
	"vtdynamics/internal/report"
)

const (
	journalName     = "checkpoint.log"
	journalMagic    = "VTCKPT1\n"
	journalFrameHdr = 8
	// journalMinPayload is the empty record: its two counts.
	journalMinPayload = 8

	// A fold is due once the journal exceeds journalFoldFactor × the
	// bytes a fold writes (foldThreshold), so folding costs a constant
	// fraction of the journal appends that led up to it.
	journalFoldFactor = 4

	journalMonthFixed = 7 + 5*8 + 4 + 4
	journalMetaFixed  = 4 + 4 + 5*8
)

// ErrJournalCorrupt is returned by Open when checkpoint.log is invalid
// anywhere but in its final record (which a crash explains and Open
// drops). RepairDir truncates the journal at its last whole record.
var ErrJournalCorrupt = errors.New("store: checkpoint journal corrupt")

// ErrJournalMismatch is returned by Open when a well-formed journal
// does not fit the partitions beside it: it skips row ordinals the
// sealed blocks do not hold, or accounts for more rows than partition
// and journal together contain. Partition bytes the journal relied on
// are gone; no truncation of the journal recovers them.
var ErrJournalMismatch = errors.New("store: checkpoint journal disagrees with the partitions")

func (s *Store) journalPath() string { return filepath.Join(s.dir, journalName) }

// step is the crash-enumeration hook: tests stop a fold, a snapshot
// write or a migration after any of its writes by returning an error
// from foldStep.
func (s *Store) step(name string) error {
	if s.foldStep != nil {
		return s.foldStep(name)
	}
	return nil
}

// replayJournal applies checkpoint.log on top of what load() rebuilt.
// It runs before the store is shared.
func (s *Store) replayJournal() error {
	f, err := os.Open(s.journalPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	s.journaled = true
	s.tracking.Store(true)

	// replayMonth tracks one month through the records: next is the
	// ordinal of the first row nothing holds yet, lineBytes the line
	// bytes of every row up to it.
	type replayMonth struct {
		next      int64
		lineBytes int64
		last      journalMonth
	}
	months := make(map[string]*replayMonth)
	var row scanRow
	goodEnd, torn, err := readJournal(f, func(rec *journalRecord) error {
		for i := range rec.Metas {
			m := &rec.Metas[i]
			s.shardFor(m.SHA).samples[m.SHA] = m.toMeta()
		}
		for i := range rec.Months {
			jm := &rec.Months[i]
			rm := months[jm.Month]
			if rm == nil {
				rm = &replayMonth{}
				if ix := s.indexes[jm.Month]; ix != nil {
					rows, raw := ix.totals()
					rm.next, rm.lineBytes = int64(rows), raw
				}
				months[jm.Month] = rm
			}
			ord := jm.SealedRows + jm.Journaled
			for lines := jm.Lines; len(lines) > 0; ord++ {
				end := bytes.IndexByte(lines, '\n')
				line := lines[:end]
				lines = lines[end+1:]
				if ord < rm.next {
					continue // a sealed block (or an earlier record) holds it
				}
				if ord > rm.next {
					return fmt.Errorf("%w: %s journal resumes at row %d, partition and journal hold %d",
						ErrJournalMismatch, jm.Month, ord, rm.next)
				}
				if err := decodeScanRow(line, &row); err != nil {
					return fmt.Errorf("%w: %s row %d: %v", ErrJournalCorrupt, jm.Month, ord, err)
				}
				if err := s.writeRows(jm.Month, []encRow{{sha: row.SHA, line: line, scan: rowToReport(row)}}); err != nil {
					return err
				}
				s.replayedRow(jm.Month, &row)
				rm.next++
				rm.lineBytes += int64(len(line))
			}
			rm.last = *jm
			rm.last.Lines = nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	for month, rm := range months {
		if rm.next < rm.last.Reports {
			return fmt.Errorf("%w: %s journal accounts %d rows, partition and journal hold %d",
				ErrJournalMismatch, month, rm.last.Reports, rm.next)
		}
		// Rows past the journal's count sealed after the last checkpoint
		// and were never acknowledged; they are on disk, so they count,
		// with the line-length approximation load() uses for raw bytes.
		st := s.stats[month]
		if st == nil {
			st = &PartitionStats{}
			s.stats[month] = st
		}
		st.Reports = int(rm.next)
		st.RawBytes = rm.last.RawBytes + rm.lineBytes - rm.last.LineBytes
		if ix := s.indexes[month]; ix != nil {
			// The killed session may have committed blocks it never fsynced;
			// a fold must, before it drops the records that still cover them.
			ix.unsynced = true
		}
		if rm.next > rm.last.Reports {
			// Their metas were in flight too; keep the rows verifiable.
			for _, sha := range s.indexes[month].sampleSHAs() {
				s.ensureSample(sha, "")
			}
		}
	}
	// Everything the writers now hold came out of the journal.
	for _, w := range s.writers {
		w.jmark, w.jrows = len(w.pendingBuf), w.pendingRows
	}
	s.jsize = goodEnd
	if torn {
		s.m.journalTorn.Inc()
	}
	return nil
}

// ensureSample gives a sample whose rows survived without a meta — the
// row was journaled, or sealed, while its Put was still in flight (rows
// are written before metas are indexed) — a stub, so the store stays
// verifiable until the collector re-fetches that window.
func (s *Store) ensureSample(sha, fileType string) {
	sh := s.shardFor(sha)
	if _, ok := sh.samples[sha]; !ok {
		sh.samples[sha] = report.SampleMeta{SHA256: sha, FileType: fileType}
	}
}

// replayedRow restores what Put's indexEncoded did for a re-fed row.
func (s *Store) replayedRow(month string, row *scanRow) {
	s.m.journalReplayed.Inc()
	s.ensureSample(row.SHA, row.FT)
	s.addMonth(row.SHA, month)
}

// sortedKeys returns m's keys in ascending order: journal bytes, and
// the order partitions are fsynced in, must not depend on map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// takeUntracked reports whether a sample was Put before tracking began
// and clears the marks. It visits every shard under its lock: a Put that
// found tracking off has by then both set the mark and indexed its meta.
func (s *Store) takeUntracked() bool {
	found := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		found = found || sh.untracked
		sh.untracked = false
		sh.mu.Unlock()
	}
	return found
}

// takeDirtyMonths returns, in month order, the months whose accounting
// moved since the last record, with that accounting, and clears the set.
func (s *Store) takeDirtyMonths() ([]string, []PartitionStats) {
	s.smu.Lock()
	defer s.smu.Unlock()
	months := sortedKeys(s.dirtyMonths)
	clear(s.dirtyMonths)
	return months, s.accountsLocked(months)
}

func (s *Store) accountsLocked(months []string) []PartitionStats {
	out := make([]PartitionStats, len(months))
	for i, month := range months {
		if st := s.stats[month]; st != nil {
			out[i] = *st
		}
	}
	return out
}

// takeDirtyMetas returns the latest meta of every sample Put since the
// last record, sorted by hash, and clears the sets.
func (s *Store) takeDirtyMetas() []metaRow {
	var out []metaRow
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for sha := range sh.dirty {
			if m, ok := sh.samples[sha]; ok { // gone only if a snapshot apply replaced the index
				out = append(out, metaFrom(m))
			}
		}
		clear(sh.dirty)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SHA < out[j].SHA })
	return out
}

// appendMonthEntry appends month's journal entry to dst: the pending
// rows no record carries yet (all of them when rejournal starts a fresh
// journal) and acct. It first waits out the writer's queued blocks, so
// every row is either committed or pending, and — because a record
// vouches for the rows that sealed since the last one without carrying
// them — fsyncs the partition if a block committed since its last
// fsync.
func (s *Store) appendMonthEntry(dst []byte, month string, acct PartitionStats, rejournal bool) ([]byte, error) {
	jm := journalMonth{Month: month, Reports: int64(acct.Reports), RawBytes: acct.RawBytes}
	s.wmu.Lock()
	w := s.writers[month]
	s.wmu.Unlock()
	if w != nil {
		w.mu.Lock()
		defer w.mu.Unlock()
	}
	if w != nil && !w.closed {
		if err := w.commitLocked(0); err != nil {
			return dst, err
		}
		if rejournal {
			w.jmark, w.jrows = 0, 0
		}
		jm.Journaled = int64(w.jrows)
		jm.Rows = w.pendingRows - w.jrows
		jm.Lines = w.pendingBuf[w.jmark:]
		jm.LineBytes = w.pendingRaw
		w.jmark, w.jrows = len(w.pendingBuf), w.pendingRows
	}
	ix := s.index(month)
	if ix != nil {
		rows, raw := ix.totals()
		jm.SealedRows = int64(rows)
		jm.LineBytes += raw
	}
	if err := s.syncPartition(month, ix); err != nil {
		return dst, err
	}
	return appendJournalMonth(dst, &jm), nil
}

// syncPartition fsyncs month's partition if a block was committed to
// it since its last fsync.
func (s *Store) syncPartition(month string, ix *partIndex) error {
	if ix == nil || !ix.takeUnsynced() {
		return nil
	}
	return durable.SyncPath(s.partPath(month))
}

// encodeRecord appends one framed record to dst: the entries of months
// (with accts, their accounting) and, unless the record starts a fresh
// journal beside snapshots that were just written, the metas changed
// since the last record. It returns how many entries the record holds.
func (s *Store) encodeRecord(dst []byte, months []string, accts []PartitionStats, fresh bool) ([]byte, int, error) {
	at := len(dst)
	dst = append(dst, make([]byte, journalFrameHdr)...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(months)))
	for i, month := range months {
		var err error
		if dst, err = s.appendMonthEntry(dst, month, accts[i], fresh); err != nil {
			return dst, 0, err
		}
	}
	// Metas after rows: a row is written before its meta is indexed, so
	// every row above whose Put has returned has its meta in this
	// record or an earlier one.
	var metas []metaRow
	if !fresh {
		metas = s.takeDirtyMetas()
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(metas)))
	for i := range metas {
		dst = appendJournalMeta(dst, &metas[i])
	}
	sealJournalFrame(dst[at:])
	return dst, len(months) + len(metas), nil
}

// journalCheckpoint appends one record covering everything that moved
// since the previous one and fsyncs the journal. Caller holds s.jmu.
func (s *Store) journalCheckpoint() error {
	months, accts := s.takeDirtyMonths()
	buf, entries, err := s.encodeRecord(s.jbuf[:0], months, accts, false)
	s.jbuf = buf
	if err != nil || entries == 0 {
		return err
	}
	if err := s.openJournal(); err != nil {
		return err
	}
	if _, err := s.jf.Write(buf); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	s.jsize += int64(len(buf))
	s.m.journalRecords.Inc()
	s.m.journalBytes.Add(int64(len(buf)))
	return nil
}

// openJournal readies checkpoint.log for appending at s.jsize: a torn
// final record Open dropped is cut off, a new journal gets its magic.
func (s *Store) openJournal() error {
	if s.jf != nil {
		return nil
	}
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.jsize == 0 {
		_, err = f.WriteAt([]byte(journalMagic), 0)
		s.jsize = int64(len(journalMagic))
	}
	if err == nil {
		err = f.Truncate(s.jsize)
	}
	if err == nil {
		_, err = f.Seek(s.jsize, io.SeekStart)
	}
	// The record's own fsync makes the bytes durable; the name needs the
	// directory's.
	if err == nil {
		err = durable.SyncPath(s.dir)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	s.jf, s.journaled = f, true
	s.foldAt = s.foldThreshold(0)
	return nil
}

// foldThreshold is the journal size past which Sync folds, for a
// journal that starts out restart bytes long: journalFoldFactor × what
// a fold has to write — the snapshots, and those restart bytes again,
// the still-pending rows (up to a block per open month, so possibly
// more than the snapshots) — and never less than × one block.
func (s *Store) foldThreshold(restart int64) int64 {
	snap := restart
	for _, name := range []string{"samples.jsonl.gz", "stats.json"} {
		if fi, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			snap += fi.Size()
		}
	}
	return journalFoldFactor * max(snap, int64(s.blockSize))
}

// fold retires the journal's contents into the snapshots: everything
// the journal is about to stop covering is made durable first, then the
// journal is replaced by one holding only the rows still pending, or —
// when final, after Flush left nothing pending — removed. A crash
// between any two steps leaves the old journal in place over newer
// files, and replaying it is idempotent; a fold that fails is retried
// whole by the next Sync or Close. Caller holds s.jmu.
func (s *Store) fold(final bool) error {
	s.jstale = true
	for _, mi := range s.monthIndexes(nil) {
		if err := s.syncPartition(mi.month, mi.ix); err != nil {
			return err
		}
	}
	if err := s.step("partitions"); err != nil {
		return err
	}
	if err := s.writeSnapshots(true); err != nil {
		return err
	}
	if s.jf != nil {
		s.jf.Close() // nothing unflushed: every append was fsynced
		s.jf = nil
	}
	if final {
		if err := os.Remove(s.journalPath()); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: %w", err)
		}
		s.jsize, s.journaled = 0, false
	} else if err := s.restartJournal(); err != nil {
		return err
	}
	if err := s.step("journal"); err != nil {
		return err
	}
	s.jstale = false
	s.m.journalFolds.Inc()
	return durable.SyncPath(s.dir)
}

// restartJournal replaces checkpoint.log with one record holding every
// open writer's pending rows, fsynced before durable.WriteFile renames
// it into place (the fold's closing directory fsync makes the rename
// durable), and reopens the new file for appending.
func (s *Store) restartJournal() error {
	s.wmu.Lock()
	months := sortedKeys(s.writers)
	s.wmu.Unlock()
	s.smu.Lock()
	accts := s.accountsLocked(months)
	s.smu.Unlock()

	buf, _, err := s.encodeRecord(append(s.jbuf[:0], journalMagic...), months, accts, true)
	s.jbuf = buf
	if err != nil {
		return err
	}

	if err := durable.WriteFile(s.journalPath(), true, durable.Bytes(buf)); err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	s.jsize, s.journaled = int64(len(buf)), true
	s.foldAt = s.foldThreshold(int64(len(buf)))
	s.m.journalBytes.Add(int64(len(buf)))
	f, err := os.OpenFile(s.journalPath(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("store: checkpoint journal: %w", err)
	}
	s.jf = f
	return nil
}

// repairJournal truncates dir's checkpoint.log at its last whole
// record, returning the bytes dropped.
func repairJournal(dir string) (int64, error) {
	path := filepath.Join(dir, journalName)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	goodEnd, _, err := readJournal(f, func(*journalRecord) error { return nil })
	if err != nil && !errors.Is(err, ErrJournalCorrupt) {
		return 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if goodEnd == fi.Size() {
		return 0, nil
	}
	if err := os.Truncate(path, goodEnd); err != nil {
		return 0, fmt.Errorf("store: repair journal: %w", err)
	}
	return fi.Size() - goodEnd, nil
}
