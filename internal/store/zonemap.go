// Zone maps: per-block pruning statistics in the index sidecar.
//
// A zone map is a tiny summary of one block's contents — min/max
// analysis timestamp, how many rows carry at least one malicious
// verdict, and 64-bit fingerprint bitsets of the block's file-type,
// engine, and label vocabularies — recorded in the block's sidecar
// entry at seal time. Scan consults the zone map before decompressing
// anything: a block whose zone proves it cannot hold a matching row is
// skipped entirely (no gunzip, no decode). Fingerprints are one-sided:
// a set bit means "a value hashing to this bit may be present", so a
// false positive costs a scan, never a wrong answer, and a miss is a
// guaranteed-safe skip.
//
// The non-negotiable invariant is that a zone map is a PURE FUNCTION
// of the block's payload rows. Three code paths compute zones — the
// write path (colBuilder, which migration rides too), the v2 payload
// recompute (zoneOfColBlock) and the v1 payload recompute (zoneAcc);
// the recomputes back every analyzePayload caller: index rebuilds at
// Open and Reindex, replication apply, repair, Verify — and all of
// them must produce bit-identical results, because leader and follower
// sidecars are compared byte-for-byte by the replication parity suite,
// and Verify cross-checks every sidecar zone against a payload
// recompute. All paths therefore share the hashing helpers below and
// hash the same normalized (validUTF8) strings the row codecs store.
//
// Sidecar entries written before zone maps carry Z == 0 ("no zone").
// Open does not load such a sidecar: it rebuilds the month's index
// from the partition bytes, zones included, so every entry a reader
// sees can be pruned on.
package store

import "vtdynamics/internal/report"

// blockZone is one block's zone-map statistics in computed form.
// Comparable with == (Verify uses that to cross-check sidecars).
type blockZone struct {
	// tmin/tmax bound the block rows' analysis timestamps (unix
	// seconds, zero-preserving like the row codec). Meaningless when
	// the block has zero rows.
	tmin, tmax int64
	// mal counts rows with at least one Malicious engine result — the
	// verdict summary MaliciousOnly queries prune on.
	mal int
	// ftb/engb/labb are 64-bit fingerprint bitsets over the block's
	// file-type, engine, and (non-empty) label vocabularies.
	ftb, engb, labb uint64
}

// fnv64a is FNV-1a over the string bytes — the zone fingerprint hash.
func fnv64a(s string) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// zoneBit maps one vocabulary value onto its fingerprint bit.
func zoneBit(s string) uint64 { return 1 << (fnv64a(s) & 63) }

// zoneBits ORs the fingerprint bits of a value set — the query-side
// mask: a block may contain one of the values only if its fingerprint
// intersects the mask.
func zoneBits(vals []string) uint64 {
	var b uint64
	for _, v := range vals {
		b |= zoneBit(v)
	}
	return b
}

// zoneAcc accumulates a v1 block's blockZone row by row from its
// decoded rows, which already carry the validUTF8-normalized strings
// the row codec stores.
type zoneAcc struct {
	rows int
	z    blockZone
}

// row folds one decoded v1 scan row.
func (a *zoneAcc) row(row *scanRow) {
	if a.rows == 0 || row.At < a.z.tmin {
		a.z.tmin = row.At
	}
	if a.rows == 0 || row.At > a.z.tmax {
		a.z.tmax = row.At
	}
	a.rows++
	a.z.ftb |= zoneBit(row.FT)
	mal := false
	for i := range row.Res {
		rr := &row.Res[i]
		a.z.engb |= zoneBit(rr.E)
		if rr.L != "" {
			a.z.labb |= zoneBit(rr.L)
		}
		if rr.V == int8(report.Malicious) {
			mal = true
		}
	}
	if mal {
		a.z.mal++
	}
}

// zoneOfColBlock recomputes a v2 block's zone from its parsed payload:
// fingerprints from the dictionaries (a dictionary holds exactly the
// values the rows reference), timestamp bounds from
// the delta-encoded time column, and the malicious-row count from the
// nres and verdict columns. The block must have been parsed with at
// least wantFT|wantEng|wantLab.
func zoneOfColBlock(cb *colBlock) (blockZone, error) {
	var z blockZone
	for _, v := range cb.ft {
		z.ftb |= zoneBit(v)
	}
	for _, v := range cb.eng {
		z.engb |= zoneBit(v)
	}
	for _, v := range cb.lab {
		z.labb |= zoneBit(v)
	}
	if cb.rows == 0 {
		return z, nil
	}
	timeC := colCursor{buf: cb.segs[segTime]}
	var at int64
	for i := 0; i < cb.rows; i++ {
		dt, err := timeC.varint()
		if err != nil {
			return z, err
		}
		at += dt
		if i == 0 || at < z.tmin {
			z.tmin = at
		}
		if i == 0 || at > z.tmax {
			z.tmax = at
		}
	}
	nresC := colCursor{buf: cb.segs[segNRes]}
	vr, err := newVerdictReader(cb.segs[segVerdict])
	if err != nil {
		return z, err
	}
	for i := 0; i < cb.rows; i++ {
		nres, err := nresC.uvarint()
		if err != nil {
			return z, err
		}
		mal := false
		for j := uint64(0); j < nres; j++ {
			v, err := vr.next()
			if err != nil {
				return z, err
			}
			if v == int8(report.Malicious) {
				mal = true
			}
		}
		if mal {
			z.mal++
		}
	}
	return z, nil
}

// setZone records a computed zone on a sidecar block entry. Z == 1
// marks the zone fields as present (and trustworthy for pruning);
// pre-zone sidecar entries lack it, which is how loadSidecar tells.
func (bm *blockMeta) setZone(z blockZone) {
	bm.Z = 1
	bm.TMin, bm.TMax = z.tmin, z.tmax
	bm.Mal = z.mal
	bm.FTB, bm.EngB, bm.LabB = z.ftb, z.engb, z.labb
}

// zone extracts the entry's zone in computed form (Verify compares it
// against a payload recompute with ==).
func (bm *blockMeta) zone() blockZone {
	return blockZone{
		tmin: bm.TMin, tmax: bm.TMax,
		mal: bm.Mal,
		ftb: bm.FTB, engb: bm.EngB, labb: bm.LabB,
	}
}
