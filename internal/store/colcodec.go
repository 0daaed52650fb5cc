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
	if n < 0 || c.off+n > len(c.buf) {
		return nil, errColCorrupt
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b, nil
}

// skipDict advances past one dictionary without materializing it.
func (c *colCursor) skipDict() error {
	n, err := c.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		l, err := c.uvarint()
		if err != nil {
			return err
		}
		if _, err := c.bytes(int(l)); err != nil {
			return err
		}
	}
	return nil
}

// readDict materializes one dictionary. intern routes entries through
// the shared vocabulary table (engines, labels, file types); sha
// dictionaries stay plain copies — sample hashes are an unbounded
// vocabulary that must not crowd the intern table.
func (c *colCursor) readDict(intern bool) ([]string, error) {
	n, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	// A count that cannot fit in the remaining bytes (every entry
	// takes at least one byte) is corruption, not a huge dictionary.
	if n > uint64(len(c.buf)-c.off) {
		return nil, errColCorrupt
	}
	vals := make([]string, n)
	for i := range vals {
		l, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := c.bytes(int(l))
		if err != nil {
			return nil, err
		}
		if intern {
			vals[i] = report.InternBytes(b) // table hits allocate nothing
		} else {
			vals[i] = string(b)
		}
	}
	return vals, nil
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
		} else if err := c.skipDict(); err != nil {
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

// lazyDict defers dictionary decoding: the constructor walks the
// entry region once, recording each entry's offset, and entry()
// decodes and interns only the entries a caller references — a Get
// touching 2 of a block's 200 labels pays string work for 2, not 200.
// The offset table keeps entry() O(1); an O(idx) rescan per lookup is
// measurably slower on blocks with large label vocabularies.
type lazyDict struct {
	data []byte  // the length-prefixed entries, sans count
	offs []int32 // start of each entry within data
}

// readLazyDict advances past one dictionary, validating entry bounds
// and indexing entry offsets.
func (c *colCursor) readLazyDict() (lazyDict, error) {
	n, err := c.uvarint()
	if err != nil {
		return lazyDict{}, err
	}
	if n > uint64(len(c.buf)-c.off) {
		return lazyDict{}, errColCorrupt
	}
	start := c.off
	offs := make([]int32, n)
	for i := range offs {
		offs[i] = int32(c.off - start)
		l, err := c.uvarint()
		if err != nil {
			return lazyDict{}, err
		}
		if _, err := c.bytes(int(l)); err != nil {
			return lazyDict{}, err
		}
	}
	return lazyDict{data: c.buf[start:c.off], offs: offs}, nil
}

func (d *lazyDict) size() uint64 { return uint64(len(d.offs)) }

func (d *lazyDict) entry(idx uint64) (string, error) {
	if idx >= uint64(len(d.offs)) {
		return "", errColCorrupt
	}
	c := colCursor{buf: d.data, off: int(d.offs[idx])}
	l, err := c.uvarint()
	if err != nil {
		return "", err
	}
	b, err := c.bytes(int(l))
	if err != nil {
		return "", err
	}
	return report.InternBytes(b), nil
}

// columnarRowsFor decodes only the rows belonging to sha. The sha
// dictionary is scanned raw — a block without the sample costs one
// allocation-free byte scan and nothing else — and when the sample is
// present, non-matching rows are skipped varint-wise and dictionaries
// decode lazily, so a Get pays full decode cost only for its own rows.
func columnarRowsFor(payload []byte, sha string) ([]*report.ScanReport, error) {
	if sniffVersion(payload) != FormatV2 {
		return nil, errColCorrupt
	}
	c := colCursor{buf: payload, off: len(colMagic) + 1}
	rowsU, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	rows := int(rowsU)
	if _, err := c.uvarint(); err != nil { // rawBytes: unused here
		return nil, err
	}
	// sha dictionary: locate the target without materializing entries.
	nsha, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if nsha > uint64(len(c.buf)-c.off) {
		return nil, errColCorrupt
	}
	target, found := uint64(0), false
	for i := uint64(0); i < nsha; i++ {
		l, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := c.bytes(int(l))
		if err != nil {
			return nil, err
		}
		if !found && string(b) == sha { // comparison only — no alloc
			target, found = i, true
		}
	}
	if !found {
		return nil, nil
	}
	ftD, err := c.readLazyDict()
	if err != nil {
		return nil, err
	}
	engD, err := c.readLazyDict()
	if err != nil {
		return nil, err
	}
	labD, err := c.readLazyDict()
	if err != nil {
		return nil, err
	}
	var segs [numColSegs][]byte
	for i := range segs {
		l, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if segs[i], err = c.bytes(int(l)); err != nil {
			return nil, err
		}
	}
	if c.off != len(payload) {
		return nil, errColCorrupt
	}

	var (
		shaC  = colCursor{buf: segs[segSHA]}
		timeC = colCursor{buf: segs[segTime]}
		ftC   = colCursor{buf: segs[segFT]}
		rankC = colCursor{buf: segs[segRank]}
		totC  = colCursor{buf: segs[segTot]}
		nresC = colCursor{buf: segs[segNRes]}
		resC  = colCursor{buf: segs[segRes]}
		out   []*report.ScanReport
		at    int64
	)
	vr, err := newVerdictReader(segs[segVerdict])
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		shaIdx, err := shaC.uvarint()
		if err != nil {
			return nil, err
		}
		dt, err := timeC.varint()
		if err != nil {
			return nil, err
		}
		at += dt
		nres, err := nresC.uvarint()
		if err != nil {
			return nil, err
		}
		if nres > uint64(len(segs[segRes])) {
			return nil, errColCorrupt
		}
		if shaIdx != target {
			// Skip: advance every per-row cursor without decoding.
			if err := ftC.skipVarints(1); err != nil {
				return nil, err
			}
			if err := rankC.skipVarints(1); err != nil {
				return nil, err
			}
			if err := totC.skipVarints(1); err != nil {
				return nil, err
			}
			if err := resC.skipVarints(3 * int(nres)); err != nil {
				return nil, err
			}
			if vr.packed {
				vr.n += int(nres)
			} else if err := vr.c.skipVarints(int(nres)); err != nil {
				return nil, err
			}
			continue
		}
		ftIdx, err := ftC.uvarint()
		if err != nil {
			return nil, err
		}
		ft, err := ftD.entry(ftIdx)
		if err != nil {
			return nil, err
		}
		rank, err := rankC.varint()
		if err != nil {
			return nil, err
		}
		tot, err := totC.varint()
		if err != nil {
			return nil, err
		}
		r := &report.ScanReport{
			SHA256:       sha,
			FileType:     ft,
			AnalysisDate: fromUnix(at),
			AVRank:       int(rank),
			EnginesTotal: int(tot),
			// Non-nil even when empty, matching rowToReport exactly.
			Results: make([]report.EngineResult, 0, nres),
		}
		for j := uint64(0); j < nres; j++ {
			engIdx, err := resC.uvarint()
			if err != nil {
				return nil, err
			}
			eng, err := engD.entry(engIdx)
			if err != nil {
				return nil, err
			}
			sigver, err := resC.varint()
			if err != nil {
				return nil, err
			}
			labIdx, err := resC.uvarint()
			if err != nil {
				return nil, err
			}
			if labIdx > labD.size() {
				return nil, errColCorrupt
			}
			v, err := vr.next()
			if err != nil {
				return nil, err
			}
			er := report.EngineResult{
				Engine:           eng,
				Verdict:          report.Verdict(v),
				SignatureVersion: int(sigver),
			}
			if labIdx > 0 {
				if er.Label, err = labD.entry(labIdx - 1); err != nil {
					return nil, err
				}
			}
			r.Results = append(r.Results, er)
		}
		out = append(out, r)
	}
	return out, nil
}
