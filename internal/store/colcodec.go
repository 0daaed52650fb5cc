// Columnar (v2) block codec.
//
// A v2 block payload — the decompressed bytes of one gzip member —
// dictionary-encodes the block's vocabulary once and stores the rows
// as column segments, so readers decode only the columns a query
// needs:
//
//	"VTCB" 0x02                          magic + payload version
//	uvarint rowCount
//	uvarint rawBytes                     Σ len(v1 line) — accounting parity
//	4 dictionaries: sha, filetype, engine, label
//	    each: uvarint n, then n × (uvarint len, bytes)
//	8 column segments, each uvarint byteLen + bytes (skippable):
//	    sha      rowCount × uvarint sha-dict index
//	    time     rowCount × varint unix-seconds delta vs previous row
//	    ft       rowCount × uvarint filetype-dict index
//	    rank     rowCount × varint AV-rank
//	    total    rowCount × varint EnginesTotal
//	    nres     rowCount × uvarint per-row result count
//	    verdict  flag byte, then the verdict bitmap: flag 1 packs two
//	             bits per result (0 undetected, 1 benign, 2 malicious)
//	             in row-major order; flag 0 falls back to one varint
//	             per result for out-of-range verdicts
//	    res      per result: uvarint engine-dict index,
//	             varint signature version, uvarint label-dict index+1
//	             (0 = no label)
//
// One encoder produces this payload: the write path builds columns
// directly from rows as they arrive (colBuilder, colbuilder.go), for
// ingest and for vtstore migrate alike. It is a pure function of the
// member's input rows, so block bytes stay independent of worker count
// and compression timing (determinism suite). Decoded vocabulary is
// interned through internal/report, so every block in a scan shares
// one string per distinct engine/label/file-type.
//
// One row loop reads it: scanColPushdown (scanpush.go), behind Scan and
// Get alike. This file holds the layout, the cursor and the verdict
// reader that loop shares, and parseColumnarBlock, the whole-block
// parse analyzePayload summarises a block with (index rebuilds,
// Verify's index check).
//
// FuzzColumnarRowDifferential pins the codec against the v1 row
// codec: encode→decode→re-encode to v1 lines must be the identity.
// FuzzDirectColumnarDifferential pins the builder byte-for-byte against
// a reference transcoder of v1 JSONL blocks kept in the tests.
package store

import (
	"encoding/binary"
	"errors"

	"vtdynamics/internal/report"
)

// Column segment order inside a v2 payload.
const (
	segSHA = iota
	segTime
	segFT
	segRank
	segTot
	segNRes
	segVerdict
	segRes
	numColSegs
)

// Verdict bitmap codes (2 bits per result when packed).
const (
	vbUndetected = 0 // report.Undetected (-1)
	vbBenign     = 1 // report.Benign (0)
	vbMalicious  = 2 // report.Malicious (1)
)

// verdictFlagPacked marks a packed 2-bit verdict segment; 0 marks the
// varint fallback for verdicts outside the three canonical values.
const verdictFlagPacked = 1

var errColCorrupt = errors.New("corrupt columnar block")

// colDict assigns dense ids to a block's vocabulary in first-seen
// order (deterministic for deterministic input).
type colDict struct {
	ids  map[string]int
	vals []string
}

func (d *colDict) id(s string) int {
	if id, ok := d.ids[s]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]int)
	}
	id := len(d.vals)
	d.ids[s] = id
	d.vals = append(d.vals, s)
	return id
}

// reset empties the dictionary for reuse, dropping the value strings
// (so a pooled dictionary never pins a block's vocabulary) but keeping
// the slice capacity. The id map is the caller's to clear or replace —
// pooled builders hand theirs back to bufpool instead.
func (d *colDict) reset() {
	d.ids = nil
	clear(d.vals)
	d.vals = d.vals[:0]
}

// appendDict appends one dictionary: count, then length-prefixed
// entries.
func appendDict(dst []byte, vals []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = binary.AppendUvarint(dst, uint64(len(v)))
		dst = append(dst, v...)
	}
	return dst
}

// colCursor walks a payload with bounds checking.
type colCursor struct {
	buf []byte
	off int
}

func (c *colCursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		return 0, errColCorrupt
	}
	c.off += n
	return v, nil
}

func (c *colCursor) varint() (int64, error) {
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		return 0, errColCorrupt
	}
	c.off += n
	return v, nil
}

func (c *colCursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(c.buf)-c.off { // c.off+n could overflow
		return nil, errColCorrupt
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

// skipDict advances past one dictionary without materializing it,
// returning its entry count.
func (c *colCursor) skipDict() (uint64, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	// A count that cannot fit in the remaining bytes (every entry
	// takes at least one byte) is corruption, not a huge dictionary.
	if n > uint64(len(c.buf)-c.off) {
		return 0, errColCorrupt
	}
	for i := uint64(0); i < n; i++ {
		l, err := c.uvarint()
		if err != nil {
			return 0, err
		}
		if _, err := c.bytes(int(l)); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// readDict materializes one dictionary, interned or not as
// scanDict.decode says.
func (c *colCursor) readDict(intern bool) ([]string, error) {
	var d scanDict
	_, _, err := d.walk(c, nil, true, false, intern)
	return d.vals, err
}

// colBlock is a parsed v2 payload: dictionaries plus the raw bytes of
// each column segment, sliced but not decoded — callers decode only
// the columns they need.
type colBlock struct {
	rows int
	raw  int64
	sha  []string // sha dictionary
	ft   []string
	eng  []string
	lab  []string
	segs [numColSegs][]byte
}

// colWant selects which dictionaries a parse materializes; segments
// are always sliced (cheap) but never decoded here.
type colWant uint8

const (
	wantSHA colWant = 1 << iota
	wantFT
	wantEng
	wantLab
	wantAllDicts = wantSHA | wantFT | wantEng | wantLab
)

// parseColumnarBlock validates the header and slices the payload into
// dictionaries and segments. Dictionaries not selected by want are
// skipped without allocation.
func parseColumnarBlock(payload []byte, want colWant) (*colBlock, error) {
	if sniffVersion(payload) != FormatV2 {
		return nil, errColCorrupt
	}
	c := colCursor{buf: payload, off: len(colMagic) + 1}
	cb := &colBlock{}
	rows, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	raw, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	cb.rows, cb.raw = int(rows), int64(raw)
	dicts := []struct {
		sel    colWant
		out    *[]string
		intern bool
	}{
		{wantSHA, &cb.sha, false},
		{wantFT, &cb.ft, true},
		{wantEng, &cb.eng, true},
		{wantLab, &cb.lab, true},
	}
	for _, d := range dicts {
		if want&d.sel != 0 {
			if *d.out, err = c.readDict(d.intern); err != nil {
				return nil, err
			}
		} else if _, err := c.skipDict(); err != nil {
			return nil, err
		}
	}
	for i := range cb.segs {
		l, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if cb.segs[i], err = c.bytes(int(l)); err != nil {
			return nil, err
		}
	}
	if c.off != len(payload) {
		return nil, errColCorrupt
	}
	return cb, nil
}

// verdictReader streams the verdict column, transparently handling
// the packed bitmap and the varint fallback.
type verdictReader struct {
	c      colCursor
	packed bool
	n      int // results read so far (packed bit position)
}

func newVerdictReader(seg []byte) (*verdictReader, error) {
	if len(seg) == 0 {
		return nil, errColCorrupt
	}
	return &verdictReader{
		c:      colCursor{buf: seg, off: 1},
		packed: seg[0] == verdictFlagPacked,
	}, nil
}

func (vr *verdictReader) next() (int8, error) {
	if !vr.packed {
		v, err := vr.c.varint()
		if err != nil {
			return 0, err
		}
		return int8(v), nil
	}
	byteIdx := vr.c.off + vr.n/4
	if byteIdx >= len(vr.c.buf) {
		return 0, errColCorrupt
	}
	code := (vr.c.buf[byteIdx] >> ((vr.n % 4) * 2)) & 0b11
	vr.n++
	switch code {
	case vbBenign:
		return int8(report.Benign), nil
	case vbMalicious:
		return int8(report.Malicious), nil
	default:
		return int8(report.Undetected), nil
	}
}

// skipVarints advances past k varints (or uvarints — the wire shape
// is the same) without decoding them.
func (c *colCursor) skipVarints(k int) error {
	for ; k > 0; k-- {
		for {
			if c.off >= len(c.buf) {
				return errColCorrupt
			}
			b := c.buf[c.off]
			c.off++
			if b < 0x80 {
				break
			}
		}
	}
	return nil
}
