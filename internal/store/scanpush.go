// The v2 pushdown loop: Scan's projected, predicate-first decode of
// one columnar block payload (see scan.go for the engine as a whole).
package store

import (
	"sync"

	"vtdynamics/internal/report"
)

// scanScratch holds the per-block decode state a pushdown scan reuses
// across blocks (pooled per worker invocation): dictionary match
// bitmaps, projected dictionary values, and the ResView buffer.
type scanScratch struct {
	shaOK, ftOK, engOK, labOK         []bool
	shaVals, ftVals, engVals, labVals []string
	res                               []ResView
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func boolsFor(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}

func stringsFor(buf []string, n int) []string {
	if cap(buf) < n {
		return make([]string, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// scanColPushdown is the projected v2 decode: dictionaries are walked
// raw to resolve predicates (set membership tested against the raw
// bytes — no allocation), values materialize only for projected
// columns, and the row loop touches only the needed segments. Returns
// the number of matching rows fed to pt.
func scanColPushdown(payload []byte, cq *compiledQuery, month string, pt Partial) (int64, error) {
	if sniffVersion(payload) != FormatV2 {
		return 0, errColCorrupt
	}
	c := colCursor{buf: payload, off: len(colMagic) + 1}
	rowsU, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	rows := int(rowsU)
	if _, err := c.uvarint(); err != nil { // rawBytes: unused here
		return 0, err
	}

	ws := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(ws)
	proj := cq.q.Cols

	// walk resolves one dictionary: when filtered, ok[i] records
	// whether entry i is in the predicate set (map lookup on the raw
	// bytes — the compiler elides the string conversion); when
	// projected, vals[i] materializes the entry. anyHit reports
	// whether any entry passed the filter — a miss means the whole
	// block cannot match (the fingerprint was a false positive) and
	// the caller can stop before decoding any segment.
	walk := func(set map[string]bool, ok *[]bool, okBuf []bool, vals *[]string, valBuf []string, intern bool) (size uint64, anyHit bool, _ error) {
		filtered, projected := set != nil, vals != nil
		if !filtered && !projected {
			n, err := dictSize(&c)
			return n, true, err
		}
		n, err := c.uvarint()
		if err != nil {
			return 0, false, err
		}
		if n > uint64(len(c.buf)-c.off) {
			return 0, false, errColCorrupt
		}
		if filtered {
			*ok = boolsFor(okBuf, int(n))
		}
		if projected {
			*vals = stringsFor(valBuf, int(n))
		}
		anyHit = !filtered
		for i := uint64(0); i < n; i++ {
			l, err := c.uvarint()
			if err != nil {
				return 0, false, err
			}
			b, err := c.bytes(int(l))
			if err != nil {
				return 0, false, err
			}
			if filtered && set[string(b)] {
				(*ok)[i] = true
				anyHit = true
			}
			if projected {
				if intern {
					(*vals)[i] = report.InternBytes(b)
				} else {
					(*vals)[i] = string(b)
				}
			}
		}
		return n, anyHit, nil
	}

	var (
		shaN, ftN, engN, labN uint64
		hit                   bool
	)
	var shaVals, ftVals, engVals, labVals *[]string
	if proj&ColSHA != 0 {
		shaVals = &ws.shaVals
	}
	if proj&ColFT != 0 {
		ftVals = &ws.ftVals
	}
	if proj&ColResults != 0 {
		engVals, labVals = &ws.engVals, &ws.labVals
	}
	if shaN, hit, err = walk(cq.shaSet, &ws.shaOK, ws.shaOK, shaVals, ws.shaVals, false); err != nil || !hit {
		return 0, err
	}
	if ftN, hit, err = walk(cq.ftSet, &ws.ftOK, ws.ftOK, ftVals, ws.ftVals, true); err != nil || !hit {
		return 0, err
	}
	if engN, hit, err = walk(cq.engSet, &ws.engOK, ws.engOK, engVals, ws.engVals, true); err != nil || !hit {
		return 0, err
	}
	if labN, hit, err = walk(cq.labSet, &ws.labOK, ws.labOK, labVals, ws.labVals, true); err != nil || !hit {
		return 0, err
	}

	var segs [numColSegs][]byte
	for i := range segs {
		l, err := c.uvarint()
		if err != nil {
			return 0, err
		}
		if segs[i], err = c.bytes(int(l)); err != nil {
			return 0, err
		}
	}
	if c.off != len(payload) {
		return 0, errColCorrupt
	}

	var (
		shaC  = colCursor{buf: segs[segSHA]}
		timeC = colCursor{buf: segs[segTime]}
		ftC   = colCursor{buf: segs[segFT]}
		rankC = colCursor{buf: segs[segRank]}
		totC  = colCursor{buf: segs[segTot]}
		nresC = colCursor{buf: segs[segNRes]}
		resC  = colCursor{buf: segs[segRes]}
		vr    *verdictReader
	)
	if cq.needVerdict {
		if vr, err = newVerdictReader(segs[segVerdict]); err != nil {
			return 0, err
		}
	}

	rv := RowView{Month: month}
	var (
		fed int64
		at  int64
	)
	for i := 0; i < rows; i++ {
		match := true
		var shaIdx, ftIdx uint64
		if cq.needSHA {
			if shaIdx, err = shaC.uvarint(); err != nil {
				return fed, err
			}
			if shaIdx >= shaN {
				return fed, errColCorrupt
			}
			if cq.shaSet != nil && !ws.shaOK[shaIdx] {
				match = false
			}
		}
		if cq.needTime {
			dt, err := timeC.varint()
			if err != nil {
				return fed, err
			}
			at += dt
			if cq.q.Since != 0 && at < cq.q.Since {
				match = false
			}
			if cq.q.Until != 0 && at > cq.q.Until {
				match = false
			}
		}
		if cq.needFT {
			if ftIdx, err = ftC.uvarint(); err != nil {
				return fed, err
			}
			if ftIdx >= ftN {
				return fed, errColCorrupt
			}
			if cq.ftSet != nil && !ws.ftOK[ftIdx] {
				match = false
			}
		}
		var rank, tot int64
		if cq.needRank {
			if rank, err = rankC.varint(); err != nil {
				return fed, err
			}
		}
		if cq.needTot {
			if tot, err = totC.varint(); err != nil {
				return fed, err
			}
		}
		if cq.needNRes {
			nres, err := nresC.uvarint()
			if err != nil {
				return fed, err
			}
			if nres > uint64(len(segs[segRes])) {
				return fed, errColCorrupt
			}
			if !match {
				if cq.needRes {
					if err := resC.skipVarints(3 * int(nres)); err != nil {
						return fed, err
					}
				}
				if cq.needVerdict {
					if vr.packed {
						vr.n += int(nres)
					} else if err := vr.c.skipVarints(int(nres)); err != nil {
						return fed, err
					}
				}
				continue
			}
			engHit := cq.engSet == nil
			labHit := cq.labSet == nil
			malHit := !cq.q.MaliciousOnly
			res := ws.res[:0]
			for j := uint64(0); j < nres; j++ {
				var engIdx, labIdx uint64
				var sig int64
				if cq.needRes {
					if engIdx, err = resC.uvarint(); err != nil {
						return fed, err
					}
					if engIdx >= engN {
						return fed, errColCorrupt
					}
					if sig, err = resC.varint(); err != nil {
						return fed, err
					}
					if labIdx, err = resC.uvarint(); err != nil {
						return fed, err
					}
					if labIdx > labN {
						return fed, errColCorrupt
					}
				}
				var v int8
				if cq.needVerdict {
					if v, err = vr.next(); err != nil {
						return fed, err
					}
				}
				if !engHit && ws.engOK[engIdx] {
					engHit = true
				}
				if !labHit && labIdx > 0 && ws.labOK[labIdx-1] {
					labHit = true
				}
				if !malHit && v == int8(report.Malicious) {
					malHit = true
				}
				if proj&ColResults != 0 {
					e := ResView{Eng: ws.engVals[engIdx], Sig: int(sig), Ver: v}
					if labIdx > 0 {
						e.Lab = ws.labVals[labIdx-1]
					}
					res = append(res, e)
				}
			}
			ws.res = res
			if !engHit || !labHit || !malHit {
				continue
			}
			if proj&ColResults != 0 {
				rv.Res = res
			}
		} else if !match {
			continue
		}
		if proj&ColSHA != 0 {
			rv.SHA = ws.shaVals[shaIdx]
		}
		if proj&ColTime != 0 {
			rv.At = at
		}
		if proj&ColFT != 0 {
			rv.FT = ws.ftVals[ftIdx]
		}
		if proj&ColRank != 0 {
			rv.Rank = int(rank)
		}
		if proj&ColTot != 0 {
			rv.Tot = int(tot)
		}
		fed++
		if err := pt.Row(&rv); err != nil {
			return fed, err
		}
	}
	return fed, nil
}

// dictSize skips one dictionary, returning its entry count (for the
// row loop's index bounds checks).
func dictSize(c *colCursor) (uint64, error) {
	n, err := c.uvarint()
	if err != nil {
		return 0, err
	}
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
