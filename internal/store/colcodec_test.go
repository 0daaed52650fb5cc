package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"vtdynamics/internal/bufpool"
	"vtdynamics/internal/report"
)

// rawBlockFor encodes reports into a raw v1 block (newline-terminated
// JSONL) exactly as the partition writer accumulates it.
func rawBlockFor(reports []*report.ScanReport) []byte {
	var raw []byte
	for _, r := range reports {
		raw = appendScanRow(raw, r)
		raw = append(raw, '\n')
	}
	return raw
}

// forEachRow decodes every column and streams the rows in storage
// order — the full-row v2 decode the tests hold Scan's pushdown loop
// to. The scanRow passed to fn is reused between calls (its
// strings are dict-owned, only the Res backing array is recycled), so
// fn must copy what it keeps — rowToReport does. The block must have
// been parsed with wantAllDicts.
func (cb *colBlock) forEachRow(fn func(row *scanRow) error) error {
	var (
		shaC  = colCursor{buf: cb.segs[segSHA]}
		timeC = colCursor{buf: cb.segs[segTime]}
		ftC   = colCursor{buf: cb.segs[segFT]}
		rankC = colCursor{buf: cb.segs[segRank]}
		totC  = colCursor{buf: cb.segs[segTot]}
		nresC = colCursor{buf: cb.segs[segNRes]}
		resC  = colCursor{buf: cb.segs[segRes]}
		row   scanRow
		at    int64
	)
	vr, err := newVerdictReader(cb.segs[segVerdict])
	if err != nil {
		return err
	}
	for i := 0; i < cb.rows; i++ {
		shaIdx, err := shaC.uvarint()
		if err != nil {
			return err
		}
		if shaIdx >= uint64(len(cb.sha)) {
			return errColCorrupt
		}
		dt, err := timeC.varint()
		if err != nil {
			return err
		}
		at += dt
		ftIdx, err := ftC.uvarint()
		if err != nil {
			return err
		}
		if ftIdx >= uint64(len(cb.ft)) {
			return errColCorrupt
		}
		rank, err := rankC.varint()
		if err != nil {
			return err
		}
		tot, err := totC.varint()
		if err != nil {
			return err
		}
		nres, err := nresC.uvarint()
		if err != nil {
			return err
		}
		if nres > uint64(len(cb.segs[segRes])) {
			return errColCorrupt
		}
		row.SHA = cb.sha[shaIdx]
		row.FT = cb.ft[ftIdx]
		row.At = at
		row.Rank = int(rank)
		row.Tot = int(tot)
		row.Res = row.Res[:0]
		if nres == 0 {
			// Match json.Unmarshal's zero scanRow: an absent result
			// array decodes as nil, and the v1 codec only ever writes
			// "r":[] for zero results when the report had a non-nil
			// empty slice — both re-encode identically, so nil is safe.
			row.Res = nil
		}
		for j := uint64(0); j < nres; j++ {
			engIdx, err := resC.uvarint()
			if err != nil {
				return err
			}
			if engIdx >= uint64(len(cb.eng)) {
				return errColCorrupt
			}
			sigver, err := resC.varint()
			if err != nil {
				return err
			}
			labIdx, err := resC.uvarint()
			if err != nil {
				return err
			}
			if labIdx > uint64(len(cb.lab)) {
				return errColCorrupt
			}
			v, err := vr.next()
			if err != nil {
				return err
			}
			rr := rowRes{E: cb.eng[engIdx], V: v, S: int(sigver)}
			if labIdx > 0 {
				rr.L = cb.lab[labIdx-1]
			}
			row.Res = append(row.Res, rr)
		}
		if err := fn(&row); err != nil {
			return err
		}
	}
	return nil
}

// decodeBlockRows is the reference full-row decode of one block in
// storage order: v1 lines through the row codec, v2 through
// forEachRow. Like forEachRow it reuses the row between calls.
func decodeBlockRows(path string, bm blockMeta, fn func(row *scanRow)) error {
	payload, err := readBlockPayloadAt(path, bm, formatMax)
	if err != nil {
		return err
	}
	defer bufpool.PutBlockBuf(payload)
	if blockVer(bm) == FormatV1 {
		var row scanRow
		return forEachLine(payload, func(line []byte) error {
			if err := decodeScanRow(line, &row); err != nil {
				return err
			}
			fn(&row)
			return nil
		})
	}
	cb, err := parseColumnarBlock(payload, wantAllDicts)
	if err != nil {
		return err
	}
	return cb.forEachRow(func(row *scanRow) error {
		fn(row)
		return nil
	})
}

// decodeV1Rows decodes a raw v1 block through the row codec — the
// reference the columnar codec is differential-tested against.
func decodeV1Rows(t testing.TB, raw []byte) []*report.ScanReport {
	t.Helper()
	var out []*report.ScanReport
	for _, line := range bytes.Split(raw, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var row scanRow
		if err := decodeScanRow(line, &row); err != nil {
			t.Fatalf("v1 decode %q: %v", line, err)
		}
		out = append(out, rowToReport(row))
	}
	return out
}

// decodeV2Rows round-trips a raw v1 block through the columnar codec:
// transcode, parse, stream rows back out.
func decodeV2Rows(t testing.TB, raw []byte) ([]*report.ScanReport, *colBlock) {
	t.Helper()
	payload, err := appendColumnarBlock(nil, raw)
	if err != nil {
		t.Fatalf("columnar encode: %v", err)
	}
	cb, err := parseColumnarBlock(payload, wantAllDicts)
	if err != nil {
		t.Fatalf("columnar parse: %v", err)
	}
	var out []*report.ScanReport
	err = cb.forEachRow(func(row *scanRow) error {
		out = append(out, rowToReport(*row))
		return nil
	})
	if err != nil {
		t.Fatalf("columnar rows: %v", err)
	}
	return out, cb
}

func colTestReports() []*report.ScanReport {
	mk := func(sha, ft string, at int64, rank int, results []report.EngineResult) *report.ScanReport {
		return &report.ScanReport{
			SHA256:       sha,
			FileType:     ft,
			AnalysisDate: fromUnix(at),
			AVRank:       rank,
			EnginesTotal: len(results),
			Results:      results,
		}
	}
	return []*report.ScanReport{
		mk("aaa", "Win32 EXE", 1619827200, 2, []report.EngineResult{
			{Engine: "Avast", Verdict: report.Malicious, SignatureVersion: 17, Label: "Trojan.Gen"},
			{Engine: "BitDefender", Verdict: report.Undetected, SignatureVersion: 9},
		}),
		mk("bbb", "PDF", 1619827260, 0, []report.EngineResult{
			{Engine: "Avast", Verdict: report.Benign, SignatureVersion: 17},
		}),
		// Same vocabulary again: dictionaries must dedupe, time column
		// must delta against the previous row.
		mk("aaa", "Win32 EXE", 1619827100, 5, []report.EngineResult{
			{Engine: "Avast", Verdict: report.Malicious, SignatureVersion: 18, Label: "Trojan.Gen"},
		}),
		// Zero results and the zero time.
		mk("ccc", "PDF", 0, 0, nil),
	}
}

// TestColumnarRoundTrip pins the codec's core contract: decoding a
// transcoded block yields exactly what the v1 row codec decodes from
// the same bytes, re-encoding the decoded rows reproduces the raw
// block byte-for-byte, and the header carries v1-parity accounting.
func TestColumnarRoundTrip(t *testing.T) {
	raw := rawBlockFor(colTestReports())
	want := decodeV1Rows(t, raw)
	got, cb := decodeV2Rows(t, raw)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar decode diverges from v1:\n got %+v\nwant %+v", got, want)
	}
	if cb.rows != len(want) {
		t.Fatalf("header rows = %d, want %d", cb.rows, len(want))
	}
	if wantRaw := int64(len(raw) - len(want)); cb.raw != wantRaw { // minus one '\n' per line
		t.Fatalf("header raw = %d, want %d", cb.raw, wantRaw)
	}
	var re []byte
	for _, r := range got {
		re = appendScanRow(re, r)
		re = append(re, '\n')
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("re-encode is not the identity:\n got %q\nwant %q", re, raw)
	}
	// Dictionaries deduped: 3 shas, 2 file types, 2 engines, 1 label.
	if len(cb.sha) != 3 || len(cb.ft) != 2 || len(cb.eng) != 2 || len(cb.lab) != 1 {
		t.Fatalf("dict sizes sha=%d ft=%d eng=%d lab=%d", len(cb.sha), len(cb.ft), len(cb.eng), len(cb.lab))
	}
}

// TestColumnarEmptyBlock: a block with no rows still produces a
// parseable payload with zeroed accounting.
func TestColumnarEmptyBlock(t *testing.T) {
	got, cb := decodeV2Rows(t, nil)
	if len(got) != 0 || cb.rows != 0 || cb.raw != 0 {
		t.Fatalf("empty block decoded to %d rows (%+v)", len(got), cb)
	}
}

// TestColumnarVerdictPacking pins both verdict encodings: canonical
// verdicts pack two bits per result behind flag byte 1, and any
// out-of-range verdict flips the whole block to the varint fallback
// (flag 0) without losing the exact values.
func TestColumnarVerdictPacking(t *testing.T) {
	canonical := rawBlockFor(colTestReports())
	payload, err := appendColumnarBlock(nil, canonical)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := parseColumnarBlock(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cb.segs[segVerdict][0] != verdictFlagPacked {
		t.Fatal("canonical verdicts did not pack")
	}

	weird := rawBlockFor([]*report.ScanReport{{
		SHA256: "w", FileType: "X",
		Results: []report.EngineResult{
			{Engine: "E", Verdict: report.Verdict(-7)},
			{Engine: "E", Verdict: report.Verdict(100)},
			{Engine: "E", Verdict: report.Malicious},
		},
	}})
	payload, err = appendColumnarBlock(nil, weird)
	if err != nil {
		t.Fatal(err)
	}
	cb, err = parseColumnarBlock(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cb.segs[segVerdict][0] == verdictFlagPacked {
		t.Fatal("out-of-range verdicts must use the varint fallback")
	}
	got, _ := decodeV2Rows(t, weird)
	want := decodeV1Rows(t, weird)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback verdicts diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestColumnarRejectsGarbage: the parser must reject v1 payloads,
// wrong versions, and every truncation of a valid payload with an
// error — never panic, never fabricate rows.
func TestColumnarRejectsGarbage(t *testing.T) {
	if _, err := parseColumnarBlock([]byte(`{"s":"x"}`), wantAllDicts); err == nil {
		t.Fatal("parsed a v1 line as columnar")
	}
	if _, err := parseColumnarBlock([]byte(colMagic+"\x01rest"), wantAllDicts); err == nil {
		t.Fatal("parsed a non-v2 version byte")
	}
	payload, err := appendColumnarBlock(nil, rawBlockFor(colTestReports()))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		cb, err := parseColumnarBlock(payload[:cut], wantAllDicts)
		if err != nil {
			continue
		}
		// A truncation that happens to parse must still fail when the
		// columns are walked — it can never produce rows silently.
		if err := cb.forEachRow(func(*scanRow) error { return nil }); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(payload))
		}
	}
	// The row loop, with and without a SHA predicate on a sample the
	// block holds, fails every truncation too.
	for _, q := range []Query{{Cols: ColAll}, {SHAs: []string{"aaa"}, Cols: ColAll}} {
		cq := compileQuery(q)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := scanColPushdown(payload[:cut], cq, "m", rowFunc(func(*RowView) error { return nil })); err == nil {
				t.Fatalf("%+v: truncation at %d/%d scanned successfully", q, cut, len(payload))
			}
		}
	}
	// Trailing garbage is corruption too: segments must tile the
	// payload exactly.
	if _, err := parseColumnarBlock(append(payload, 0xAB), wantAllDicts); err == nil {
		t.Fatal("parsed a payload with trailing garbage")
	}
	// An entry length near MaxInt64 must be corruption, not an
	// overflowed bounds check and a slice panic.
	huge := binary.AppendUvarint([]byte(colMagic+"\x02\x01\x00\x01"), math.MaxInt64) // 1 row, 1 sha entry
	if _, err := parseColumnarBlock(huge, wantAllDicts); err == nil {
		t.Fatal("parsed a dictionary entry longer than the payload")
	}
	if _, err := scanColPushdown(huge, compileQuery(Query{Cols: ColAll}), "m", rowFunc(func(*RowView) error { return nil })); err == nil {
		t.Fatal("scanned a dictionary entry longer than the payload")
	}
}

// FuzzColumnarRowDifferential differential-tests the columnar codec
// against the v1 row codec (satellite of the format-v2 work): for an
// arbitrary block of rows, v1-encode → columnar transcode → columnar
// decode must equal the v1 decode of the same bytes, and re-encoding
// the decoded rows must reproduce the raw block byte-for-byte — the
// same identity Migrate's SHA verification relies on.
func FuzzColumnarRowDifferential(f *testing.F) {
	// Seeds mirror FuzzStoreRowRoundTrip's: fixture shapes plus the
	// historic codec traps (invalid UTF-8, zero/negative times,
	// out-of-range verdicts), extended with a second row to exercise
	// dictionary sharing and time deltas.
	f.Add("aaa", "Win32 EXE", int64(1619827200), 2, 70, "Avast", int8(1), 17, "Trojan.Gen",
		"bbb", "lab2", int64(60), int8(0), uint8(2))
	f.Add("bbb", "PDF", int64(1622505600), 0, 68, "BitDefender", int8(0), 9, "",
		"bbb", "", int64(-120), int8(-1), uint8(0))
	f.Add("", "", int64(0), 0, 0, "", int8(0), 0, "",
		"", "", int64(0), int8(0), uint8(5))
	f.Add("sha\xffbad", "PE32", int64(-7), -3, 1<<20, "Eng\xc3", int8(-2), -1, "lab\xe2\x28el",
		"z", "not-a-virus:HEUR\xf0", int64(1), int8(99), uint8(3))

	f.Fuzz(func(t *testing.T, sha, ft string, at int64, rank, tot int, eng string, verdict int8, sigver int, label string,
		sha2, label2 string, dt int64, verdict2 int8, dup uint8) {
		reports := []*report.ScanReport{
			{
				SHA256:       sha,
				FileType:     ft,
				AnalysisDate: fromUnix(at),
				AVRank:       rank,
				EnginesTotal: tot,
				Results: []report.EngineResult{{
					Engine:           eng,
					Verdict:          report.Verdict(verdict),
					SignatureVersion: sigver,
					Label:            label,
				}},
			},
			{
				SHA256:       sha2,
				FileType:     ft, // shared vocabulary on purpose
				AnalysisDate: fromUnix(at + dt),
				AVRank:       rank,
				EnginesTotal: tot,
				Results: []report.EngineResult{
					{Engine: eng, Verdict: report.Verdict(verdict2), SignatureVersion: sigver, Label: label2},
					{Engine: eng, Verdict: report.Verdict(verdict), SignatureVersion: sigver},
				},
			},
		}
		// A few duplicate rows stress dictionary reuse and zero deltas.
		for i := uint8(0); i < dup%4; i++ {
			reports = append(reports, reports[0])
		}

		raw := rawBlockFor(reports)
		want := decodeV1Rows(t, raw)
		got, cb := decodeV2Rows(t, raw)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("columnar decode diverges from v1 codec:\n got %+v\nwant %+v\nraw %q", got, want, raw)
		}
		if cb.rows != len(reports) {
			t.Fatalf("header rows = %d, want %d", cb.rows, len(reports))
		}
		var re []byte
		for _, r := range got {
			re = appendScanRow(re, r)
			re = append(re, '\n')
		}
		if !bytes.Equal(re, raw) {
			t.Fatalf("decode→re-encode is not the identity:\n first %q\nsecond %q", raw, re)
		}
	})
}
