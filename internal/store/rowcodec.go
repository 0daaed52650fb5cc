// Hand-rolled codec for the compact on-disk row encoding. The encoder
// writes bytes identical to json.Marshal(rowFromScan(scan)) — pinned
// by FuzzRowCodecDifferential — so partitions written by either
// implementation hash equal. The decoder is a strict fast path over
// the jsonx cursor that falls back to encoding/json on any input
// outside its subset, and interns the engine/label/file-type
// vocabulary so millions of rows share one string per distinct value.
package store

import (
	"bytes"
	"encoding/json"
	"strings"
	"time"

	"vtdynamics/internal/jsonx"
	"vtdynamics/internal/report"
)

// appendScanRow appends the compact row encoding of scan directly
// from the report, skipping the scanRow intermediate: same UTF-8
// normalization, same zero-preserving timestamps, same omitempty
// label handling.
func appendScanRow(dst []byte, scan *report.ScanReport) []byte {
	dst = append(dst, `{"s":`...)
	dst = jsonx.AppendString(dst, validUTF8(scan.SHA256))
	dst = append(dst, `,"f":`...)
	dst = jsonx.AppendString(dst, validUTF8(scan.FileType))
	dst = append(dst, `,"t":`...)
	dst = jsonx.AppendInt(dst, unix(scan.AnalysisDate))
	dst = append(dst, `,"p":`...)
	dst = jsonx.AppendInt(dst, int64(scan.AVRank))
	dst = append(dst, `,"n":`...)
	dst = jsonx.AppendInt(dst, int64(scan.EnginesTotal))
	dst = append(dst, `,"r":[`...)
	for i := range scan.Results {
		er := &scan.Results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"e":`...)
		dst = jsonx.AppendString(dst, validUTF8(er.Engine))
		dst = append(dst, `,"v":`...)
		dst = jsonx.AppendInt(dst, int64(er.Verdict))
		dst = append(dst, `,"s":`...)
		dst = jsonx.AppendInt(dst, int64(er.SignatureVersion))
		if lab := validUTF8(er.Label); lab != "" {
			dst = append(dst, `,"l":`...)
			dst = jsonx.AppendString(dst, lab)
		}
		dst = append(dst, '}')
	}
	dst = append(dst, ']', '}')
	return dst
}

// forEachLine is the one v1 line iterator: it hands fn each line of an
// in-memory JSONL payload — a v1 block, or the pending block's copy a
// writer keeps — with the bufio.ScanLines framing every earlier reader
// used (a final line may lack its '\n'; one trailing '\r' is
// dropped). The line aliases payload. fn's first error stops the walk
// and is returned.
func forEachLine(payload []byte, fn func(line []byte) error) error {
	for len(payload) > 0 {
		line := payload
		if i := bytes.IndexByte(payload, '\n'); i >= 0 {
			line, payload = payload[:i], payload[i+1:]
		} else {
			payload = nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	return nil
}

// decodeScanRow parses one partition line into row, reusing row.Res
// capacity. All strings in the result are owned (cloned or interned),
// never aliases of line, so callers may recycle the line buffer. On
// inputs outside the fast path's subset it defers to encoding/json,
// reproducing its exact accept/reject behavior.
func decodeScanRow(line []byte, row *scanRow) error {
	if decodeScanRowFast(line, row) {
		return nil
	}
	// Full reset: the fast attempt may have partially filled the row,
	// and json.Unmarshal merges into existing values.
	*row = scanRow{}
	return json.Unmarshal(line, row)
}

func decodeScanRowFast(line []byte, row *scanRow) bool {
	c := jsonx.Cursor{Buf: line}
	empty, err := c.ObjectStart()
	if err != nil {
		return false
	}
	row.SHA, row.FT = "", ""
	row.At, row.Rank, row.Tot = 0, 0, 0
	row.Res = row.Res[:0]
	seenRes := false
	if !empty {
		for {
			key, kerr := c.Key()
			if kerr != nil {
				return false
			}
			switch string(key) {
			case "s":
				v, err := c.ReadString()
				if err != nil {
					return false
				}
				row.SHA = string(v)
			case "f":
				v, err := c.ReadString()
				if err != nil {
					return false
				}
				row.FT = report.InternBytes(v)
			case "t":
				if row.At, err = c.ReadInt64(); err != nil {
					return false
				}
			case "p":
				v, err := c.ReadInt64()
				if err != nil {
					return false
				}
				row.Rank = int(v)
			case "n":
				v, err := c.ReadInt64()
				if err != nil {
					return false
				}
				row.Tot = int(v)
			case "r":
				// A repeated "r" key makes encoding/json merge the
				// arrays element-wise; punt rather than replicate that.
				if seenRes {
					return false
				}
				seenRes = true
				if !decodeRowResults(&c, &row.Res) {
					return false
				}
			default:
				return false
			}
			done, nerr := c.ObjectNext()
			if nerr != nil {
				return false
			}
			if done {
				break
			}
		}
	}
	if c.AtEOF() != nil {
		return false
	}
	if !seenRes {
		row.Res = nil // match the zero scanRow json.Unmarshal leaves
	}
	return true
}

func decodeRowResults(c *jsonx.Cursor, res *[]rowRes) bool {
	empty, err := c.ArrayStart()
	if err != nil {
		return false
	}
	if empty {
		return true
	}
	for {
		var rr rowRes
		if !decodeRowRes(c, &rr) {
			return false
		}
		*res = append(*res, rr)
		done, err := c.ArrayNext()
		if err != nil {
			return false
		}
		if done {
			return true
		}
	}
}

func decodeRowRes(c *jsonx.Cursor, rr *rowRes) bool {
	empty, err := c.ObjectStart()
	if err != nil {
		return false
	}
	if empty {
		return true
	}
	for {
		key, err := c.Key()
		if err != nil {
			return false
		}
		switch string(key) {
		case "e":
			v, err := c.ReadString()
			if err != nil {
				return false
			}
			rr.E = report.InternBytes(v)
		case "v":
			v, err := c.ReadInt64()
			if err != nil || v < -128 || v > 127 {
				return false // int8 overflow is an encoding/json error
			}
			rr.V = int8(v)
		case "s":
			v, err := c.ReadInt64()
			if err != nil {
				return false
			}
			rr.S = int(v)
		case "l":
			v, err := c.ReadString()
			if err != nil {
				return false
			}
			rr.L = report.InternBytes(v)
		default:
			return false
		}
		done, err := c.ObjectNext()
		if err != nil {
			return false
		}
		if done {
			return true
		}
	}
}

// rowSHA extracts just the sample hash from a row line, allocation
// free for canonical encoder output (the "s" field leads and needs no
// unescaping). ok=false means the caller must fall back to a full
// decode.
func rowSHA(line []byte) (sha []byte, ok bool) {
	c := jsonx.Cursor{Buf: line}
	empty, err := c.ObjectStart()
	if err != nil || empty {
		return nil, false
	}
	key, err := c.Key()
	if err != nil || string(key) != "s" {
		return nil, false
	}
	v, err := c.ReadString()
	if err != nil {
		return nil, false
	}
	return v, true
}

// scanRow is the compact on-disk encoding of one scan.
type scanRow struct {
	SHA  string   `json:"s"`
	FT   string   `json:"f"`
	At   int64    `json:"t"`
	Rank int      `json:"p"`
	Tot  int      `json:"n"`
	Res  []rowRes `json:"r"`
}

type rowRes struct {
	E string `json:"e"`
	V int8   `json:"v"`
	S int    `json:"s"`
	L string `json:"l,omitempty"`
}

// validUTF8 normalizes a string to valid UTF-8 so the row encoding
// round-trips: encoding/json silently replaces invalid bytes with
// U+FFFD on marshal, so storing the replacement form up front keeps
// what Get returns identical to what the partition holds. (Engine
// label strings are arbitrary engine output, so this does happen.)
func validUTF8(s string) string { return strings.ToValidUTF8(s, "�") }

// rowFromScan builds the compact on-disk encoding of one scan. All
// strings are normalized to valid UTF-8 and the timestamp goes
// through the same zero-preserving unix encoding as metadata rows, so
// rowToReport(rowFromScan(r)) reproduces r exactly (fuzzed by
// FuzzStoreRowRoundTrip).
func rowFromScan(scan *report.ScanReport) scanRow {
	row := scanRow{
		SHA:  validUTF8(scan.SHA256),
		FT:   validUTF8(scan.FileType),
		At:   unix(scan.AnalysisDate),
		Rank: scan.AVRank,
		Tot:  scan.EnginesTotal,
		Res:  make([]rowRes, len(scan.Results)),
	}
	for i, er := range scan.Results {
		row.Res[i] = rowRes{E: validUTF8(er.Engine), V: int8(er.Verdict), S: er.SignatureVersion, L: validUTF8(er.Label)}
	}
	return row
}

func rowToReport(row scanRow) *report.ScanReport {
	r := &report.ScanReport{
		SHA256:       row.SHA,
		FileType:     row.FT,
		AnalysisDate: fromUnix(row.At),
		AVRank:       row.Rank,
		EnginesTotal: row.Tot,
		Results:      make([]report.EngineResult, len(row.Res)),
	}
	for i, rr := range row.Res {
		r.Results[i] = report.EngineResult{
			Engine:           rr.E,
			Verdict:          report.Verdict(rr.V),
			SignatureVersion: rr.S,
			Label:            rr.L,
		}
	}
	return r
}

// metaRow is the compact metadata encoding.
type metaRow struct {
	SHA   string `json:"s"`
	FT    string `json:"f"`
	Size  int64  `json:"z"`
	First int64  `json:"a"`
	LastA int64  `json:"b"`
	LastS int64  `json:"c"`
	TS    int    `json:"n"`
}

func (m metaRow) toMeta() report.SampleMeta {
	return report.SampleMeta{
		SHA256:              m.SHA,
		FileType:            m.FT,
		Size:                m.Size,
		FirstSubmissionDate: fromUnix(m.First),
		LastAnalysisDate:    fromUnix(m.LastA),
		LastSubmissionDate:  fromUnix(m.LastS),
		TimesSubmitted:      m.TS,
	}
}

func metaFrom(meta report.SampleMeta) metaRow {
	return metaRow{
		SHA:   validUTF8(meta.SHA256),
		FT:    validUTF8(meta.FileType),
		Size:  meta.Size,
		First: unix(meta.FirstSubmissionDate),
		LastA: unix(meta.LastAnalysisDate),
		LastS: unix(meta.LastSubmissionDate),
		TS:    meta.TimesSubmitted,
	}
}

func unix(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Unix()
}

func fromUnix(s int64) time.Time {
	if s == 0 {
		return time.Time{}
	}
	return time.Unix(s, 0).UTC()
}
