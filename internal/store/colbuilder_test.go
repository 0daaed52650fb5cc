package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"vtdynamics/internal/report"
)

// appendColumnarBlock transcodes one raw v1 block (newline-terminated
// JSONL rows) into a v2 columnar payload appended to dst. It is the
// format's reference encoder: it derives every column by re-parsing
// the rows' v1 lines, independently of colBuilder, which the tests
// below hold byte-identical to it.
func appendColumnarBlock(dst []byte, raw []byte) ([]byte, error) {
	var (
		shaD, ftD, engD, labD colDict
		segs                  [numColSegs][]byte
		verdicts              []int8
		packable              = true
		rows                  int
		rawBytes              int64
		prevAt                int64
		row                   scanRow
	)
	for len(raw) > 0 {
		nl := 0
		for nl < len(raw) && raw[nl] != '\n' {
			nl++
		}
		line := raw[:nl]
		if nl < len(raw) {
			raw = raw[nl+1:]
		} else {
			raw = nil
		}
		if len(line) == 0 {
			continue
		}
		if err := decodeScanRow(line, &row); err != nil {
			return nil, fmt.Errorf("store: columnar encode: %w", err)
		}
		rows++
		rawBytes += int64(len(line))
		segs[segSHA] = binary.AppendUvarint(segs[segSHA], uint64(shaD.id(row.SHA)))
		segs[segTime] = binary.AppendVarint(segs[segTime], row.At-prevAt)
		prevAt = row.At
		segs[segFT] = binary.AppendUvarint(segs[segFT], uint64(ftD.id(row.FT)))
		segs[segRank] = binary.AppendVarint(segs[segRank], int64(row.Rank))
		segs[segTot] = binary.AppendVarint(segs[segTot], int64(row.Tot))
		segs[segNRes] = binary.AppendUvarint(segs[segNRes], uint64(len(row.Res)))
		for _, rr := range row.Res {
			verdicts = append(verdicts, rr.V)
			if rr.V < -1 || rr.V > 1 {
				packable = false
			}
			segs[segRes] = binary.AppendUvarint(segs[segRes], uint64(engD.id(rr.E)))
			segs[segRes] = binary.AppendVarint(segs[segRes], int64(rr.S))
			if rr.L == "" {
				segs[segRes] = binary.AppendUvarint(segs[segRes], 0)
			} else {
				segs[segRes] = binary.AppendUvarint(segs[segRes], uint64(labD.id(rr.L)+1))
			}
		}
	}
	// Verdict bitmap: packed two-bit codes when every verdict is
	// canonical, one varint per result otherwise.
	if packable {
		segs[segVerdict] = append(segs[segVerdict], verdictFlagPacked)
		var cur byte
		for i, v := range verdicts {
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
				segs[segVerdict] = append(segs[segVerdict], cur)
				cur = 0
			}
		}
		if len(verdicts)%4 != 0 {
			segs[segVerdict] = append(segs[segVerdict], cur)
		}
	} else {
		segs[segVerdict] = append(segs[segVerdict], 0)
		for _, v := range verdicts {
			segs[segVerdict] = binary.AppendVarint(segs[segVerdict], int64(v))
		}
	}

	dst = append(dst, colMagic...)
	dst = append(dst, FormatV2)
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(rawBytes))
	dst = appendDict(dst, shaD.vals)
	dst = appendDict(dst, ftD.vals)
	dst = appendDict(dst, engD.vals)
	dst = appendDict(dst, labD.vals)
	for _, seg := range segs[:] {
		dst = binary.AppendUvarint(dst, uint64(len(seg)))
		dst = append(dst, seg...)
	}
	return dst, nil
}

// directColumnarPayload encodes reports through the write path's
// direct column builder — pool round trip included, so these tests
// also prove recycled builders start clean.
func directColumnarPayload(reports []*report.ScanReport) []byte {
	b := getColBuilder()
	var line []byte
	for _, r := range reports {
		line = appendScanRow(line[:0], r)
		b.addRow(r, len(line))
	}
	payload := b.seal(nil)
	putColBuilder(b)
	return payload
}

// TestDirectColumnarMatchesTranscode pins the tentpole invariant on
// fixed shapes: the direct builder's payload is byte-identical to the
// flush-time transcode of the same rows' JSONL — including the empty
// block, the varint verdict fallback, invalid UTF-8 normalization,
// and zero timestamps.
func TestDirectColumnarMatchesTranscode(t *testing.T) {
	cases := map[string][]*report.ScanReport{
		"fixture": colTestReports(),
		"empty":   nil,
		"weird-verdicts": {{
			SHA256: "w", FileType: "X",
			Results: []report.EngineResult{
				{Engine: "E", Verdict: report.Verdict(-7)},
				{Engine: "E", Verdict: report.Verdict(100)},
				{Engine: "E", Verdict: report.Malicious},
			},
		}},
		"invalid-utf8": {{
			SHA256:   "sha\xffbad",
			FileType: "PE\xc332",
			AVRank:   -3,
			Results: []report.EngineResult{{
				Engine: "Eng\xc3", Verdict: report.Benign, Label: "lab\xe2\x28el",
			}},
		}},
		"zero-times": {
			{SHA256: "a", FileType: "PDF", AnalysisDate: fromUnix(0)},
			{SHA256: "a", FileType: "PDF", AnalysisDate: fromUnix(-120)},
			{SHA256: "a", FileType: "PDF", AnalysisDate: fromUnix(1619827200)},
		},
	}
	for name, reports := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := appendColumnarBlock(nil, rawBlockFor(reports))
			if err != nil {
				t.Fatal(err)
			}
			got := directColumnarPayload(reports)
			if !bytes.Equal(got, want) {
				t.Fatalf("direct builder diverges from transcode:\n got %q\nwant %q", got, want)
			}
		})
	}
}

// TestColBuilderPoolReuse cycles one block's vocabulary through the
// pool, then encodes a disjoint block: any leaked dictionary entry,
// verdict, or delta baseline would show up as a byte diff against the
// transcode of the second block alone.
func TestColBuilderPoolReuse(t *testing.T) {
	directColumnarPayload(colTestReports()) // populate + recycle

	second := []*report.ScanReport{{
		SHA256:       "zzz",
		FileType:     "ELF",
		AnalysisDate: fromUnix(99),
		Results: []report.EngineResult{
			{Engine: "ClamAV", Verdict: report.Malicious, Label: "Worm.X"},
		},
	}}
	want, err := appendColumnarBlock(nil, rawBlockFor(second))
	if err != nil {
		t.Fatal(err)
	}
	if got := directColumnarPayload(second); !bytes.Equal(got, want) {
		t.Fatalf("recycled builder leaked state:\n got %q\nwant %q", got, want)
	}
}

// FuzzDirectColumnarDifferential is the write path's byte-identity
// proof: for an arbitrary block of rows, the direct column builder
// must emit exactly the payload the flush-time transcode
// (appendColumnarBlock over the rows' JSONL lines) emits. Seeds
// mirror FuzzColumnarRowDifferential's shapes — dictionary sharing,
// invalid UTF-8, out-of-range verdicts, zero/negative time deltas.
func FuzzDirectColumnarDifferential(f *testing.F) {
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
		for i := uint8(0); i < dup%4; i++ {
			reports = append(reports, reports[0])
		}

		want, err := appendColumnarBlock(nil, rawBlockFor(reports))
		if err != nil {
			t.Fatalf("transcode reference: %v", err)
		}
		got := directColumnarPayload(reports)
		if !bytes.Equal(got, want) {
			t.Fatalf("direct builder diverges from transcode:\n got %q\nwant %q", got, want)
		}
	})
}
