// The v2 pushdown loop: the one projected, predicate-first decode of a
// columnar block payload, behind Scan and Get alike (see scan.go for
// the engine as a whole).
package store

import (
	"encoding/binary"
	"slices"
	"sync"

	"vtdynamics/internal/report"
)

// scanScratch holds the per-block decode state a pushdown scan reuses
// across blocks (pooled per worker invocation): the four dictionaries,
// the ResView buffer and the RowView fed to the kernel (a kernel call
// through the Partial interface would move a local one to the heap).
type scanScratch struct {
	sha, ft, eng, lab scanDict
	res               []ResView
	rv                RowView
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// scanDict is one block dictionary as the row loop sees it. When the
// query filters on it, ok[i] records whether entry i is in the
// predicate set; when it projects it, at hands out entry i. Without a
// SHA predicate, the walk decodes every entry up front: a scan feeds
// most rows, so it references most entries. Under one (a Get, or a
// SHA scan), few rows survive, so the walk records only where each
// entry starts and at decodes an entry on its first reference — a Get
// touching 2 of a block's 200 labels pays string work for 2.
type scanDict struct {
	ok     []bool
	vals   []string
	offs   []int32 // lazy: entry i's length prefix in buf
	buf    []byte
	lazy   bool
	intern bool
}

// at returns entry i, which the walk bounds-checked. A lazy empty
// entry decodes again on every reference: "" marks "not yet decoded",
// and an eager empty entry must not be taken for one.
func (d *scanDict) at(i uint64) string {
	if v := d.vals[i]; v != "" || !d.lazy {
		return v
	}
	return d.load(i)
}

func (d *scanDict) load(i uint64) string {
	l, n := binary.Uvarint(d.buf[d.offs[i]:])
	d.vals[i] = d.decode(d.buf[int(d.offs[i])+n:][:l])
	return d.vals[i]
}

// decode materialises an entry. intern routes it through the shared
// vocabulary table (engines, labels, file types; table hits allocate
// nothing); sha entries stay plain copies — sample hashes are an
// unbounded vocabulary that must not crowd the intern table.
func (d *scanDict) decode(b []byte) string {
	if d.intern {
		return report.InternBytes(b)
	}
	return string(b)
}

// walk reads the dictionary at c. A filtered walk tests each entry
// against set on its raw bytes (the compiler elides the string
// conversion); a projected one decodes each entry now or, lazy,
// records its offset. It returns the entry count (for the row loop's
// bounds checks) and whether any entry passed the filter: a miss means
// no row of the block can match — the fingerprint or posting was a
// false positive — and the caller stops before any segment.
func (d *scanDict) walk(c *colCursor, set map[string]bool, projected, lazy, intern bool) (uint64, bool, error) {
	if set == nil && !projected {
		n, err := c.skipDict()
		return n, true, err
	}
	n, err := c.uvarint()
	if err != nil {
		return 0, false, err
	}
	if n > uint64(len(c.buf)-c.off) { // as in skipDict
		return 0, false, errColCorrupt
	}
	d.buf, d.lazy, d.intern = c.buf, lazy && projected, intern
	if set != nil {
		d.ok = boolsFor(d.ok, int(n))
	}
	if projected {
		d.vals = stringsFor(d.vals, int(n))
	}
	if d.lazy {
		d.offs = slices.Grow(d.offs[:0], int(n))[:n]
	}
	anyHit := set == nil
	for i := range n {
		start := c.off
		l, err := c.uvarint()
		if err != nil {
			return 0, false, err
		}
		b, err := c.bytes(int(l))
		if err != nil {
			return 0, false, err
		}
		if set != nil && set[string(b)] {
			d.ok[i] = true
			anyHit = true
		}
		if d.lazy {
			d.offs[i] = int32(start)
		} else if projected {
			d.vals[i] = d.decode(b)
		}
	}
	return n, anyHit, nil
}

func boolsFor(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
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

// scanColPushdown is the one v2 row loop, behind Scan and Get alike:
// dictionaries are walked raw to resolve predicates (set membership
// tested against the raw bytes — no allocation), values materialize
// only for projected columns, and the row loop touches only the needed
// segments. Returns the number of matching rows fed to pt.
func scanColPushdown(payload []byte, cq *compiledQuery, month string, pt Partial) (int64, error) {
	ws := scanScratchPool.Get().(*scanScratch)
	defer scanScratchPool.Put(ws)
	return ws.scan(payload, cq, month, pt)
}

func (ws *scanScratch) scan(payload []byte, cq *compiledQuery, month string, pt Partial) (int64, error) {
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

	proj := cq.q.Cols
	lazy := cq.shaSet != nil
	var (
		shaN, ftN, engN, labN uint64
		hit                   bool
	)
	if shaN, hit, err = ws.sha.walk(&c, cq.shaSet, proj&ColSHA != 0, lazy, false); err != nil || !hit {
		return 0, err
	}
	if ftN, hit, err = ws.ft.walk(&c, cq.ftSet, proj&ColFT != 0, lazy, true); err != nil || !hit {
		return 0, err
	}
	if engN, hit, err = ws.eng.walk(&c, cq.engSet, proj&ColResults != 0, lazy, true); err != nil || !hit {
		return 0, err
	}
	if labN, hit, err = ws.lab.walk(&c, cq.labSet, proj&ColResults != 0, lazy, true); err != nil || !hit {
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

	cur := rowCursors{
		ft:   colCursor{buf: segs[segFT]},
		rank: colCursor{buf: segs[segRank]},
		tot:  colCursor{buf: segs[segTot]},
		nres: colCursor{buf: segs[segNRes]},
		res:  colCursor{buf: segs[segRes]},
	}
	shaC, timeC := colCursor{buf: segs[segSHA]}, colCursor{buf: segs[segTime]}
	if cq.needVerdict {
		if cur.vr, err = newVerdictReader(segs[segVerdict]); err != nil {
			return 0, err
		}
	}

	rv := &ws.rv
	*rv = RowView{Month: month}
	var (
		fed  int64
		at   int64
		owed int // rows failed on SHA or time that the later cursors have not passed
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
			if cq.shaSet != nil && !ws.sha.ok[shaIdx] {
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
		// The row's other columns wait: the next row that passes steps
		// past them all in one run, and rows after a block's last match
		// cost nothing more. Under a SHA predicate that is most rows.
		if !match {
			owed++
			continue
		}
		if owed > 0 {
			if err := cur.skipRows(owed, cq); err != nil {
				return fed, err
			}
			owed = 0
		}
		if cq.needFT {
			if ftIdx, err = cur.ft.uvarint(); err != nil {
				return fed, err
			}
			if ftIdx >= ftN {
				return fed, errColCorrupt
			}
			if cq.ftSet != nil && !ws.ft.ok[ftIdx] {
				match = false
			}
		}
		var rank, tot int64
		if cq.needRank {
			if rank, err = cur.rank.varint(); err != nil {
				return fed, err
			}
		}
		if cq.needTot {
			if tot, err = cur.tot.varint(); err != nil {
				return fed, err
			}
		}
		if cq.needNRes {
			nres, err := cur.nres.uvarint()
			if err != nil {
				return fed, err
			}
			if nres > uint64(len(cur.res.buf)) {
				return fed, errColCorrupt
			}
			if !match {
				if err := cur.skipResults(int(nres), cq); err != nil {
					return fed, err
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
					if engIdx, err = cur.res.uvarint(); err != nil {
						return fed, err
					}
					if engIdx >= engN {
						return fed, errColCorrupt
					}
					if sig, err = cur.res.varint(); err != nil {
						return fed, err
					}
					if labIdx, err = cur.res.uvarint(); err != nil {
						return fed, err
					}
					if labIdx > labN {
						return fed, errColCorrupt
					}
				}
				var v int8
				if cq.needVerdict {
					if v, err = cur.vr.next(); err != nil {
						return fed, err
					}
				}
				if !engHit && ws.eng.ok[engIdx] {
					engHit = true
				}
				if !labHit && labIdx > 0 && ws.lab.ok[labIdx-1] {
					labHit = true
				}
				if !malHit && v == int8(report.Malicious) {
					malHit = true
				}
				if proj&ColResults != 0 {
					e := ResView{Eng: ws.eng.at(engIdx), Sig: int(sig), Ver: v}
					if labIdx > 0 {
						e.Lab = ws.lab.at(labIdx - 1)
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
			rv.SHA = ws.sha.at(shaIdx)
		}
		if proj&ColTime != 0 {
			rv.At = at
		}
		if proj&ColFT != 0 {
			rv.FT = ws.ft.at(ftIdx)
		}
		if proj&ColRank != 0 {
			rv.Rank = int(rank)
		}
		if proj&ColTot != 0 {
			rv.Tot = int(tot)
		}
		fed++
		if err := pt.Row(rv); err != nil {
			return fed, err
		}
	}
	return fed, nil
}

// rowCursors are a v2 block's column cursors past the two the row
// loop decides on first (SHA and time).
type rowCursors struct {
	ft, rank, tot, nres, res colCursor
	vr                       *verdictReader
}

// skipRows steps past k rows in every cursor the query reads.
func (cur *rowCursors) skipRows(k int, cq *compiledQuery) error {
	for _, c := range []struct {
		need bool
		c    *colCursor
	}{{cq.needFT, &cur.ft}, {cq.needRank, &cur.rank}, {cq.needTot, &cur.tot}} {
		if c.need {
			if err := c.c.skipVarints(k); err != nil {
				return err
			}
		}
	}
	if !cq.needNRes {
		return nil
	}
	n := 0
	for range k {
		nres, err := cur.nres.uvarint()
		if err != nil {
			return err
		}
		if nres > uint64(len(cur.res.buf)) {
			return errColCorrupt
		}
		n += int(nres)
	}
	return cur.skipResults(n, cq)
}

// skipResults steps past n results in the result and verdict columns.
func (cur *rowCursors) skipResults(n int, cq *compiledQuery) error {
	if cq.needRes {
		if err := cur.res.skipVarints(3 * n); err != nil {
			return err
		}
	}
	if cq.needVerdict {
		if cur.vr.packed {
			cur.vr.n += n
		} else if err := cur.vr.c.skipVarints(n); err != nil {
			return err
		}
	}
	return nil
}
