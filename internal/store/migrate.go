// In-place format migration: vtstore migrate's engine.
//
// Migrate rewrites every partition still holding v1 blocks into
// format v2, one month at a time, through a temp file that only
// replaces the partition after the rewrite is verified row-for-row
// against the source. Verification hashes the canonical v1 re-encoding
// of every row on both sides — the strongest equivalence the store
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
// write concurrently. Each month is rewritten into a temporary file,
// SHA-256-verified against the source (over the canonical row
// encoding of every row, in storage order), and atomically renamed
// over the partition; a fresh sidecar is persisted and the month's
// cached histories are dropped. Months already fully v2 are skipped.
func (s *Store) Migrate() (MigrateStats, error) {
	var ms MigrateStats
	if err := s.Flush(); err != nil {
		return ms, err
	}
	for _, mi := range s.monthIndexes("") {
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
// it still holds v1 rows.
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

	tmp := path + ".migrate"
	newIx, srcSum, stored, err := s.rewriteMonth(path, blocks, tmp)
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	dstSum, err := s.canonicalSum(tmp, newIx.snapshotBlocks())
	if err != nil {
		os.Remove(tmp)
		return false, err
	}
	if !bytes.Equal(srcSum, dstSum) {
		os.Remove(tmp)
		return false, fmt.Errorf("store: migrate %s: rewrite verification failed (source %x != rewrite %x)", month, srcSum, dstSum)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("store: migrate %s: %w", month, err)
	}
	newIx.dirty = true
	if err := newIx.writeSidecar(s.dir, month); err != nil {
		return false, err
	}
	s.setIndex(month, newIx)
	s.smu.Lock()
	if st := s.stats[month]; st != nil {
		st.StoredBytes = stored
	}
	s.smu.Unlock()
	for _, sha := range newIx.sampleSHAs() {
		s.cache.invalidate(sha)
	}
	return true, nil
}

// rewriteMonth streams src's rows, block by block in storage order,
// into dst as v2 blocks cut at the store's block-size target,
// returning the new block index, the canonical row hash of the source,
// and the bytes written.
func (s *Store) rewriteMonth(src string, blocks []blockMeta, dst string) (*partIndex, []byte, int64, error) {
	f, err := os.Create(dst)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: migrate: %w", err)
	}
	counter := &countingWriter{w: f}
	newIx := newPartIndex()
	srcHash := sha256.New()
	var (
		pending  = bufpool.GetBlockBuf()
		rows     int
		raw      int64
		shas     = make(map[string]int)
		acc      zoneAcc
		innerErr error
	)
	defer func() { bufpool.PutBlockBuf(pending) }()
	cutBlock := func() error {
		if rows == 0 {
			return nil
		}
		col, err := appendColumnarBlock(bufpool.GetBlockBuf(), pending)
		if err != nil {
			bufpool.PutBlockBuf(col)
			return err
		}
		start := counter.n
		zw := bufpool.GetGzipWriter(counter)
		_, werr := zw.Write(col)
		cerr := zw.Close()
		bufpool.PutGzipWriter(zw)
		bufpool.PutBlockBuf(col)
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("store: migrate: %w", werr)
		}
		bm := blockMeta{
			Offset: start,
			Len:    counter.n - start,
			Rows:   rows,
			Raw:    raw,
			Ver:    FormatV2,
		}
		bm.setZone(acc.z)
		newIx.appendBlock(bm, shas)
		pending = pending[:0]
		rows, raw = 0, 0
		shas = make(map[string]int)
		acc.reset()
		return nil
	}
	lineBuf := bufpool.GetBuf()
	defer func() { bufpool.PutBuf(lineBuf) }()
	err = s.scanBlocks(src, blocks, func(row scanRow) {
		if innerErr != nil {
			return
		}
		// Canonical re-encode: migration normalizes every row to the
		// writer's own encoding, which for writer-produced partitions
		// is the identity.
		r := rowToReport(row)
		lineBuf = appendScanRow(lineBuf[:0], r)
		srcHash.Write(lineBuf)
		srcHash.Write([]byte{'\n'})
		pending = append(pending, lineBuf...)
		pending = append(pending, '\n')
		rows++
		raw += int64(len(lineBuf))
		shas[row.SHA]++
		acc.row(&row)
		if len(pending) >= s.blockSize {
			innerErr = cutBlock()
		}
	})
	if err == nil {
		err = innerErr
	}
	if err == nil {
		err = cutBlock()
	}
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		return nil, nil, 0, err
	}
	return newIx, srcHash.Sum(nil), counter.n, nil
}

// canonicalSum hashes the canonical row encoding of every row in a
// partition file's blocks, in storage order — the verification
// fingerprint Migrate compares across the rewrite.
func (s *Store) canonicalSum(path string, blocks []blockMeta) ([]byte, error) {
	h := sha256.New()
	lineBuf := bufpool.GetBuf()
	defer func() { bufpool.PutBuf(lineBuf) }()
	err := s.scanBlocks(path, blocks, func(row scanRow) {
		lineBuf = appendScanRow(lineBuf[:0], rowToReport(row))
		h.Write(lineBuf)
		h.Write([]byte{'\n'})
	})
	if err != nil {
		return nil, err
	}
	return h.Sum(nil), nil
}

// scanBlocks streams the rows of a partition file's blocks, in order,
// through fn.
func (s *Store) scanBlocks(path string, blocks []blockMeta, fn func(row scanRow)) error {
	for _, bm := range blocks {
		if err := scanBlock(path, bm, s.maxFormat, fn); err != nil {
			return err
		}
	}
	return nil
}
