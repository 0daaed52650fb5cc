// Checkpoint journal codec: records, frames and the reader that
// walks them (the format is in journal.go's header).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// journalMonth is one month's entry in a record.
type journalMonth struct {
	Month string
	// SealedRows counts the rows in the partition's committed blocks at
	// the checkpoint; Journaled the pending rows earlier records carry.
	// The entry's first line therefore has ordinal SealedRows+Journaled.
	SealedRows int64
	Journaled  int64
	// Reports and RawBytes are the month's absolute accounting;
	// LineBytes is Σ len(line) over every row of the month so far, the
	// base for approximating rows that sealed behind the journal's back.
	Reports   int64
	RawBytes  int64
	LineBytes int64
	// Lines holds Rows newline-terminated JSONL rows.
	Rows  int
	Lines []byte
}

// journalRecord is one checkpoint.
type journalRecord struct {
	Months []journalMonth
	Metas  []metaRow
}

func appendJournalMonth(dst []byte, m *journalMonth) []byte {
	dst = append(dst, m.Month...)
	for _, v := range [...]int64{m.SealedRows, m.Journaled, m.Reports, m.RawBytes, m.LineBytes} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.Rows))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Lines)))
	return append(dst, m.Lines...)
}

func appendJournalMeta(dst []byte, m *metaRow) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.SHA)))
	dst = append(dst, m.SHA...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.FT)))
	dst = append(dst, m.FT...)
	for _, v := range [...]int64{m.Size, m.First, m.LastA, m.LastS, int64(m.TS)} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// sealJournalFrame fills in the header of a frame whose payload is
// already in place behind it.
func sealJournalFrame(frame []byte) {
	payload := frame[journalFrameHdr:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, journalCRC))
}

// journalDecoder walks a payload; the first short read sticks.
type journalDecoder struct {
	p   []byte
	bad bool
}

func (d *journalDecoder) take(n int) []byte {
	if d.bad || n < 0 || n > len(d.p) {
		d.bad = true
		return nil
	}
	out := d.p[:n]
	d.p = d.p[n:]
	return out
}

func (d *journalDecoder) u32() int {
	if b := d.take(4); b != nil {
		return int(binary.LittleEndian.Uint32(b))
	}
	return 0
}

// i64 reads a fixed-width integer; a negative one is an error unless
// signed (meta fields may legitimately be negative).
func (d *journalDecoder) i64(signed bool) int64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(b))
	if v < 0 && !signed {
		d.bad = true
	}
	return v
}

// decodeJournalRecord parses one payload. Lines alias p. Every count
// is checked against the bytes that remain before anything is sized by
// it, so a hostile payload cannot make the decoder allocate more than
// its own length implies.
func decodeJournalRecord(p []byte) (journalRecord, error) {
	var rec journalRecord
	d := journalDecoder{p: p}
	if n := d.u32(); n > len(d.p)/journalMonthFixed {
		d.bad = true
	} else if n > 0 {
		rec.Months = make([]journalMonth, n)
	}
	for i := range rec.Months {
		m := &rec.Months[i]
		m.Month = string(d.take(7))
		m.SealedRows, m.Journaled = d.i64(false), d.i64(false)
		m.Reports, m.RawBytes, m.LineBytes = d.i64(false), d.i64(false), d.i64(false)
		m.Rows = d.u32()
		m.Lines = d.take(d.u32())
		if d.bad {
			break
		}
		if !ValidMonthKey(m.Month) {
			return rec, fmt.Errorf("%w: month key %q", ErrJournalCorrupt, m.Month)
		}
		if bytes.Count(m.Lines, []byte{'\n'}) != m.Rows || (m.Rows > 0 && m.Lines[len(m.Lines)-1] != '\n') {
			return rec, fmt.Errorf("%w: %s entry claims %d rows over %d line bytes", ErrJournalCorrupt, m.Month, m.Rows, len(m.Lines))
		}
	}
	if n := d.u32(); n > len(d.p)/journalMetaFixed {
		d.bad = true
	} else if n > 0 && !d.bad {
		rec.Metas = make([]metaRow, n)
	}
	for i := range rec.Metas {
		m := &rec.Metas[i]
		m.SHA = string(d.take(d.u32()))
		m.FT = string(d.take(d.u32()))
		m.Size, m.First, m.LastA, m.LastS = d.i64(true), d.i64(true), d.i64(true), d.i64(true)
		m.TS = int(d.i64(true))
	}
	if d.bad || len(d.p) != 0 {
		return rec, fmt.Errorf("%w: record payload of %d bytes does not parse", ErrJournalCorrupt, len(p))
	}
	return rec, nil
}

// readJournal streams the journal's records through fn (a record and
// its lines are valid only during the call). goodEnd is the offset
// behind the last whole record — 0 when not even the magic is whole.
// torn reports that the file ends in a stretch a crash mid-append
// explains: a short magic, a short frame, or a frame that fails its
// checksum (or claims less than the empty record's length) with nothing
// behind it but, at most, zeros — a power loss can leave the file
// extended without the data having arrived.
// Everything else invalid is ErrJournalCorrupt, also with goodEnd at
// the last whole record.
func readJournal(r io.Reader, fn func(rec *journalRecord) error) (goodEnd int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var magic [len(journalMagic)]byte
	switch n, err := io.ReadFull(br, magic[:]); {
	case err == io.EOF:
		return 0, false, nil
	case err == io.ErrUnexpectedEOF && journalMagic[:n] == string(magic[:n]):
		return 0, true, nil
	case err != nil && err != io.ErrUnexpectedEOF:
		return 0, false, fmt.Errorf("store: checkpoint journal: %w", err)
	case string(magic[:]) != journalMagic:
		return 0, false, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	goodEnd = int64(len(journalMagic))
	var payload bytes.Buffer
	for {
		var hdr [journalFrameHdr]byte
		switch _, err := io.ReadFull(br, hdr[:]); {
		case err == io.EOF:
			return goodEnd, false, nil
		case err == io.ErrUnexpectedEOF:
			return goodEnd, true, nil
		case err != nil:
			return goodEnd, false, fmt.Errorf("store: checkpoint journal: %w", err)
		}
		size := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		// No record is shorter than the empty one. (An all-zero header
		// would otherwise pass: CRC-32C of nothing is 0.)
		bad := size < journalMinPayload
		if !bad {
			payload.Reset()
			// CopyN grows the buffer as bytes arrive, so a length field that
			// lies allocates nothing the file does not back.
			switch _, err := io.CopyN(&payload, br, size); {
			case err == io.EOF:
				return goodEnd, true, nil
			case err != nil:
				return goodEnd, false, fmt.Errorf("store: checkpoint journal: %w", err)
			}
			bad = crc32.Checksum(payload.Bytes(), journalCRC) != binary.LittleEndian.Uint32(hdr[4:8])
		}
		if bad {
			// Nothing, or nothing but zeros, behind the bad frame: the append
			// (or the zero-filled extent a power loss left of it) ends the file.
			if zero, err := zeroToEOF(br); err != nil {
				return goodEnd, false, fmt.Errorf("store: checkpoint journal: %w", err)
			} else if zero {
				return goodEnd, true, nil
			}
			if size < journalMinPayload {
				return goodEnd, false, fmt.Errorf("%w: record @%d claims %d payload bytes", ErrJournalCorrupt, goodEnd, size)
			}
			return goodEnd, false, fmt.Errorf("%w: record @%d fails its checksum", ErrJournalCorrupt, goodEnd)
		}
		rec, err := decodeJournalRecord(payload.Bytes())
		if err != nil {
			return goodEnd, false, fmt.Errorf("record @%d: %w", goodEnd, err)
		}
		if err := fn(&rec); err != nil {
			return goodEnd, false, err
		}
		goodEnd += journalFrameHdr + size
	}
}

// zeroToEOF reports whether everything r still holds is zero.
func zeroToEOF(r io.Reader) (bool, error) {
	buf := make([]byte, 4<<10)
	for {
		n, err := r.Read(buf)
		if len(bytes.TrimLeft(buf[:n], "\x00")) != 0 {
			return false, nil
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}
