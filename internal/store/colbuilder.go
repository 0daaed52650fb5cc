// Streaming v2 block encoder: column state built directly from rows.
//
// colBuilder is the one encoder of v2 blocks. It folds each scan into
// per-block dictionaries and column segments as the row arrives, so
// sealing a block at cut time is a pure concatenation — no parsing, no
// intermediate buffer.
//
// The non-negotiable contract is byte identity with the format's
// definition: for any sequence of rows, seal() must emit exactly the
// bytes a transcode of the rows' v1 JSONL lines emits (the reference
// transcoder lives in colbuilder_test.go). That
// holds because both normalize through the same pipeline — validUTF8
// on every string (JSON escape→unescape of a valid-UTF-8 string is
// the identity, so the transcode's decoded dictionary values equal
// the normalized inputs), unix() zero-preserving timestamps, int8
// verdicts, first-seen dictionary ids, per-block delta timestamps
// starting from 0 — and is pinned three ways: the differential fuzzer
// (FuzzDirectColumnarDifferential), the golden-v2 fixture rewrite
// test (TestGoldenV2WriterByteIdentity), and the determinism harness.
//
// Builders and their dictionary id maps are pooled (colBuilderPool +
// bufpool.GetCountMap) because ingest discards one of each per block;
// TestColBuilderAllocBudget pins the steady-state cycle.
package store

import (
	"encoding/binary"
	"sync"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// colBuilder accumulates one v2 block's column state incrementally.
// Zero value is not ready for use — obtain builders via getColBuilder.
type colBuilder struct {
	shaD, ftD, engD, labD colDict
	// segs collects the column segments; segs[segVerdict] stays empty
	// until seal, which packs the verdicts buffered below.
	segs     [numColSegs][]byte
	verdicts []int8
	packable bool
	rows     int
	// rawBytes is Σ len(v1 line) — the header's accounting-parity field.
	rawBytes int64
	prevAt   int64

	// Zone-map state (zonemap.go): timestamp bounds and malicious-row
	// count accumulate per row; the vocabulary fingerprints come from
	// the dictionaries at zone() time, so each distinct value is
	// hashed once per block instead of once per row.
	zTMin, zTMax int64
	zMal         int
}

// colBuilderPool recycles builder shells (segment buffers, verdict
// and dictionary-value slices keep their capacity across blocks); the
// dictionary id maps inside are drawn from bufpool's count-map pool,
// shared with the writers' pendingShas maps.
var colBuilderPool = sync.Pool{
	New: func() any { return new(colBuilder) },
}

// getColBuilder returns an empty builder ready to accept rows.
func getColBuilder() *colBuilder {
	b := colBuilderPool.Get().(*colBuilder)
	b.shaD.ids = bufpool.GetCountMap()
	b.ftD.ids = bufpool.GetCountMap()
	b.engD.ids = bufpool.GetCountMap()
	b.labD.ids = bufpool.GetCountMap()
	b.packable = true
	return b
}

// putColBuilder recycles a builder once its sealed payload has been
// handed off. Dictionary id maps return to bufpool; value slices and
// segment buffers are truncated (string references cleared so blocks
// don't pin vocabulary) but keep their capacity.
func putColBuilder(b *colBuilder) {
	bufpool.PutCountMap(b.shaD.ids)
	bufpool.PutCountMap(b.ftD.ids)
	bufpool.PutCountMap(b.engD.ids)
	bufpool.PutCountMap(b.labD.ids)
	b.shaD.reset()
	b.ftD.reset()
	b.engD.reset()
	b.labD.reset()
	for i := range b.segs {
		b.segs[i] = b.segs[i][:0]
	}
	b.verdicts = b.verdicts[:0]
	b.packable = false
	b.rows = 0
	b.rawBytes = 0
	b.prevAt = 0
	b.zTMin, b.zTMax, b.zMal = 0, 0, 0
	colBuilderPool.Put(b)
}

// addRow folds one scan into the column state. lineLen is the length
// of the row's v1 JSONL line (sans newline) — the builder never needs
// the line's bytes, only its length, for the header's rawBytes field.
// The normalization below must stay in lockstep with appendScanRow /
// decodeScanRow: that equivalence is what makes the payload
// byte-identical to a transcode of the rows' v1 lines.
func (b *colBuilder) addRow(scan *report.ScanReport, lineLen int) {
	b.rows++
	b.rawBytes += int64(lineLen)
	b.segs[segSHA] = binary.AppendUvarint(b.segs[segSHA], uint64(b.shaD.id(validUTF8(scan.SHA256))))
	at := unix(scan.AnalysisDate)
	b.segs[segTime] = binary.AppendVarint(b.segs[segTime], at-b.prevAt)
	b.prevAt = at
	if b.rows == 1 || at < b.zTMin {
		b.zTMin = at
	}
	if b.rows == 1 || at > b.zTMax {
		b.zTMax = at
	}
	b.segs[segFT] = binary.AppendUvarint(b.segs[segFT], uint64(b.ftD.id(validUTF8(scan.FileType))))
	b.segs[segRank] = binary.AppendVarint(b.segs[segRank], int64(scan.AVRank))
	b.segs[segTot] = binary.AppendVarint(b.segs[segTot], int64(scan.EnginesTotal))
	b.segs[segNRes] = binary.AppendUvarint(b.segs[segNRes], uint64(len(scan.Results)))
	rowMal := false
	for i := range scan.Results {
		er := &scan.Results[i]
		v := int8(er.Verdict)
		b.verdicts = append(b.verdicts, v)
		if v < -1 || v > 1 {
			b.packable = false
		}
		if v == int8(report.Malicious) {
			rowMal = true
		}
		b.segs[segRes] = binary.AppendUvarint(b.segs[segRes], uint64(b.engD.id(validUTF8(er.Engine))))
		b.segs[segRes] = binary.AppendVarint(b.segs[segRes], int64(er.SignatureVersion))
		if lab := validUTF8(er.Label); lab == "" {
			b.segs[segRes] = binary.AppendUvarint(b.segs[segRes], 0)
		} else {
			b.segs[segRes] = binary.AppendUvarint(b.segs[segRes], uint64(b.labD.id(lab)+1))
		}
	}
	if rowMal {
		b.zMal++
	}
}

// zone derives the block's zone map from the accumulated state. The
// result equals zoneOfColBlock over the sealed payload: dictionaries
// hold exactly the values the rows referenced, and timestamps and
// verdicts were folded per row above.
func (b *colBuilder) zone() blockZone {
	z := blockZone{tmin: b.zTMin, tmax: b.zTMax, mal: b.zMal}
	for _, v := range b.ftD.vals {
		z.ftb |= zoneBit(v)
	}
	for _, v := range b.engD.vals {
		z.engb |= zoneBit(v)
	}
	for _, v := range b.labD.vals {
		z.labb |= zoneBit(v)
	}
	return z
}

// seal appends the finished v2 payload to dst: header, dictionaries,
// verdict bitmap, column segments. Sealing is pure
// encoding and cannot fail; it does not consume the builder (callers
// recycle it with putColBuilder when done).
func (b *colBuilder) seal(dst []byte) []byte {
	vseg := b.segs[segVerdict][:0]
	if b.packable {
		vseg = append(vseg, verdictFlagPacked)
		var cur byte
		for i, v := range b.verdicts {
			var code byte
			switch report.Verdict(v) {
			case report.Benign:
				code = vbBenign
			case report.Malicious:
				code = vbMalicious
			default:
				code = vbUndetected
			}
			cur |= code << ((i % 4) * 2)
			if i%4 == 3 {
				vseg = append(vseg, cur)
				cur = 0
			}
		}
		if len(b.verdicts)%4 != 0 {
			vseg = append(vseg, cur)
		}
	} else {
		vseg = append(vseg, 0)
		for _, v := range b.verdicts {
			vseg = binary.AppendVarint(vseg, int64(v))
		}
	}
	b.segs[segVerdict] = vseg

	dst = append(dst, colMagic...)
	dst = append(dst, FormatV2)
	dst = binary.AppendUvarint(dst, uint64(b.rows))
	dst = binary.AppendUvarint(dst, uint64(b.rawBytes))
	dst = appendDict(dst, b.shaD.vals)
	dst = appendDict(dst, b.ftD.vals)
	dst = appendDict(dst, b.engD.vals)
	dst = appendDict(dst, b.labD.vals)
	for _, seg := range b.segs[:] {
		dst = binary.AppendUvarint(dst, uint64(len(seg)))
		dst = append(dst, seg...)
	}
	return dst
}
