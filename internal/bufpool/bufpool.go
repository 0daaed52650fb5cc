// Package bufpool holds the process-wide free lists behind the
// serialization/compression hot paths: gzip writers and readers, byte
// slices for encoded rows, and the block-sized buffers partition
// writers fill and partition readers decompress into.
//
// Every pool is a sync.Pool, so memory pressure still reclaims idle
// buffers; the point is that steady-state ingest and scan loops stop
// allocating a fresh flate state machine (~1.2 MB of window and
// tables) and a fresh line buffer per block, per response, and per
// request body. The store, the HTTP API, and the client all draw from
// the same pools, matching how one process runs all three in the
// simulator benchmarks.
package bufpool

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
	"sync"
)

// bufPool recycles small-to-medium byte slices (encoded rows, scratch
// encode buffers). Slices are pooled via pointer to avoid allocating
// a box on every Put.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuf returns an empty byte slice with pooled capacity. Release it
// with PutBuf when the bytes are no longer referenced.
func GetBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

// PutBuf returns a slice obtained from GetBuf (or grown from one) to
// the pool. The caller must not retain b afterwards.
func PutBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// blockBufPool recycles the large raw-block accumulation buffers the
// partition writers fill before compression. Separate from bufPool so
// row-sized gets never pin block-sized backing arrays.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 264<<10)
		return &b
	},
}

// GetBlockBuf returns an empty buffer sized for one uncompressed
// partition block.
func GetBlockBuf() []byte {
	return (*blockBufPool.Get().(*[]byte))[:0]
}

// PutBlockBuf recycles a buffer from GetBlockBuf.
func PutBlockBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	blockBufPool.Put(&b)
}

// countMapPool recycles the string-count maps the partition writers
// burn through once per block: the per-block sha posting map
// (pendingShas) and the column builders' dictionary id maps — all
// map[string]int, all discarded at block granularity. Reusing the
// map keeps its bucket array, so steady-state ingest stops paying a
// map allocation (plus growth re-hashing) per cut.
var countMapPool = sync.Pool{
	New: func() any { return make(map[string]int, 64) },
}

// GetCountMap returns an empty map[string]int with pooled capacity.
func GetCountMap() map[string]int {
	return countMapPool.Get().(map[string]int)
}

// PutCountMap clears and recycles a map from GetCountMap. The caller
// must not retain m afterwards. A nil map is a no-op.
func PutCountMap(m map[string]int) {
	if m == nil {
		return
	}
	clear(m)
	countMapPool.Put(m)
}

// bufioReaderPool recycles the buffered readers in front of gzip
// block decodes.
var bufioReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 64<<10) },
}

// GetBufioReader returns a 64 KiB buffered reader reading from r.
func GetBufioReader(r io.Reader) *bufio.Reader {
	br := bufioReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// PutBufioReader recycles a reader from GetBufioReader.
func PutBufioReader(br *bufio.Reader) {
	br.Reset(nil)
	bufioReaderPool.Put(br)
}

// bytesBufferPool recycles bytes.Buffers (compressed-block staging,
// HTTP bodies).
var bytesBufferPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// GetBuffer returns an empty bytes.Buffer.
func GetBuffer() *bytes.Buffer {
	return bytesBufferPool.Get().(*bytes.Buffer)
}

// PutBuffer resets and recycles a buffer from GetBuffer. The caller
// must not retain the buffer or its Bytes afterwards.
func PutBuffer(b *bytes.Buffer) {
	b.Reset()
	bytesBufferPool.Put(b)
}

var gzipWriterPool = sync.Pool{
	New: func() any { return gzip.NewWriter(io.Discard) },
}

// GetGzipWriter returns a gzip.Writer (default compression level,
// exactly what gzip.NewWriter builds — block bytes must stay
// identical to unpooled output) reset to write to w.
func GetGzipWriter(w io.Writer) *gzip.Writer {
	zw := gzipWriterPool.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw
}

// PutGzipWriter recycles a writer from GetGzipWriter. The caller must
// have Closed it (or otherwise be done with the stream).
func PutGzipWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	gzipWriterPool.Put(zw)
}

var gzipReaderPool = sync.Pool{
	New: func() any { return new(gzip.Reader) },
}

// GetGzipReader returns a gzip.Reader reset to read from r, or the
// header error (the reader is recycled internally on error).
func GetGzipReader(r io.Reader) (*gzip.Reader, error) {
	zr := gzipReaderPool.Get().(*gzip.Reader)
	if err := zr.Reset(r); err != nil {
		gzipReaderPool.Put(zr)
		return nil, err
	}
	return zr, nil
}

// PutGzipReader recycles a reader from GetGzipReader.
func PutGzipReader(zr *gzip.Reader) {
	gzipReaderPool.Put(zr)
}
