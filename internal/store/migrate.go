// In-place format migration: vtstore migrate's engine.
//
// Migrate rewrites every partition still holding v1 blocks into
// format v2, one month at a time, through the partWriter ingest uses,
// into a temp file that only replaces the partition after the rewrite
// is verified row-for-row against the source. Verification hashes the
// canonical v1 re-encoding of every row on both sides — the strongest equivalence the store
// defines (it is exactly what Get must reproduce) — so a codec bug can
// not silently corrupt data during migration. Months already fully v2
// are skipped, which makes the operation idempotent: running migrate
// twice is a no-op the second time.
package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/durable"
)

// MigrateStats summarizes one Migrate pass.
type MigrateStats struct {
	// Migrated lists the months rewritten to v2.
	Migrated []string
	// Skipped lists the months left untouched (already fully v2, or
	// empty).
	Skipped []string
}

// Migrate rewrites every partition that still holds v1 blocks into
// block format v2, in place. It flushes first; the caller must not
// write concurrently. Each month is rewritten through the store's
// partition writer into a temporary file, SHA-256-verified against the
// source (over the canonical row encoding of every row, in storage
// order), fsynced, and atomically renamed over the partition; a fresh
// sidecar is persisted and the month's cached histories are dropped.
// Months already fully v2 are skipped.
func (s *Store) Migrate() (MigrateStats, error) {
	var ms MigrateStats
	if err := s.Flush(); err != nil {
		return ms, err
	}
	for _, mi := range s.monthIndexes(nil) {
		migrated, err := s.migrateMonth(mi.month, mi.ix.snapshotBlocks())
		if err != nil {
			return ms, err
		}
		if migrated {
			ms.Migrated = append(ms.Migrated, mi.month)
		} else {
			ms.Skipped = append(ms.Skipped, mi.month)
		}
	}
	return ms, nil
}

// migrateMonth rewrites one month, given its current block list, if
// it still holds v1 rows. The rewrite is fsynced before it replaces the
// partition and the directory after, so a power loss leaves either
// month whole; the month's sidecar goes first, so no crash leaves one
// describing the other file (Open rebuilds a missing sidecar).
func (s *Store) migrateMonth(month string, blocks []blockMeta) (bool, error) {
	path := s.partPath(month)
	needs := false
	for _, bm := range blocks {
		if bm.Rows > 0 && blockVer(bm) == FormatV1 {
			needs = true
			break
		}
	}
	if !needs {
		return false, nil
	}
	// The rewrite's commits count its bytes into the month's accounting;
	// whatever happens below, the partition on disk is what it stores.
	defer func() {
		fi, err := os.Stat(path)
		s.smu.Lock()
		if st := s.stats[month]; st != nil && err == nil {
			st.StoredBytes = fi.Size()
		}
		s.smu.Unlock()
	}()

	tmp := path + ".migrate"
	newIx, srcSum, err := s.rewriteMonth(month, blocks, tmp)
	if err == nil {
		err = s.verifyRewrite(month, tmp, newIx, srcSum)
	}
	if err == nil {
		err = s.step("rewritten")
	}
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	if err := os.Remove(sidecarPath(s.dir, month)); err != nil && !os.IsNotExist(err) {
		return false, fmt.Errorf("store: migrate %s: %w", month, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("store: migrate %s: %w", month, err)
	}
	if err := durable.SyncPath(s.dir); err != nil {
		return false, err
	}
	s.setIndex(month, newIx)
	for _, sha := range newIx.sampleSHAs() {
		s.cache.invalidate(sha)
	}
	if err := s.step("renamed"); err != nil {
		return false, err
	}
	if err := newIx.writeSidecar(s.dir, month); err != nil {
		return false, err
	}
	return true, s.step("sidecar")
}

// rewriteMonth feeds src's rows, block by block in storage order, to a
// partition writer over dst — the writer every new block goes through,
// so blocks are cut at the store's block-size target exactly as
// ingest cuts them — and fsyncs dst. It returns dst's block index and
// the canonical row hash of the source.
func (s *Store) rewriteMonth(month string, blocks []blockMeta, dst string) (*partIndex, []byte, error) {
	f, err := os.Create(dst)
	if err != nil {
		return nil, nil, fmt.Errorf("store: migrate: %w", err)
	}
	w := s.newPartWriter(f, 0, month, newPartIndex())
	w.mu.Lock()
	defer w.mu.Unlock()
	srcHash := sha256.New()
	lineBuf := bufpool.GetBuf()
	defer func() { bufpool.PutBuf(lineBuf) }()
	err = s.scanBlocks(s.partPath(month), blocks, func(rv *RowView) error {
		// Canonical re-encode: migration normalizes every row to the
		// writer's own encoding, which for writer-produced partitions
		// is the identity.
		scan := rv.toReport()
		lineBuf = appendScanRow(lineBuf[:0], scan)
		srcHash.Write(lineBuf)
		srcHash.Write([]byte{'\n'})
		return w.writeRowLocked(encRow{sha: scan.SHA256, line: lineBuf, scan: scan})
	})
	if err == nil {
		err = w.finishLocked()
	}
	if err == nil {
		err = durable.SyncPath(dst)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return w.idx, srcHash.Sum(nil), nil
}

// verifyRewrite checks that the rewrite at tmp holds exactly the rows
// the source hashed to srcSum.
func (s *Store) verifyRewrite(month, tmp string, ix *partIndex, srcSum []byte) error {
	dstSum, err := s.canonicalSum(tmp, ix.snapshotBlocks())
	if err != nil {
		return err
	}
	if !bytes.Equal(srcSum, dstSum) {
		return fmt.Errorf("store: migrate %s: rewrite verification failed (source %x != rewrite %x)", month, srcSum, dstSum)
	}
	return nil
}

// canonicalSum hashes the canonical row encoding of every row in a
// partition file's blocks, in storage order — the verification
// fingerprint Migrate compares across the rewrite.
func (s *Store) canonicalSum(path string, blocks []blockMeta) ([]byte, error) {
	h := sha256.New()
	lineBuf := bufpool.GetBuf()
	defer func() { bufpool.PutBuf(lineBuf) }()
	err := s.scanBlocks(path, blocks, func(rv *RowView) error {
		lineBuf = appendScanRow(lineBuf[:0], rv.toReport())
		h.Write(lineBuf)
		h.Write([]byte{'\n'})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// scanBlocks streams the rows of a partition file's blocks, in order,
// through fn, on Scan's own block decode with every column projected.
func (s *Store) scanBlocks(path string, blocks []blockMeta, fn func(rv *RowView) error) error {
	cq := compileQuery(Query{Cols: ColAll})
	for seq, bm := range blocks {
		if _, err := s.runScanJob(blockJob{path: path, seq: seq, bm: bm}, cq, rowFunc(fn)); err != nil {
			return err
		}
	}
	return nil
}
