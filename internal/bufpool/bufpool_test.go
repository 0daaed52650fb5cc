package bufpool

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
	"testing"
)

// TestGzipWriterPooledBytesIdentical pins the property the store's
// determinism suite depends on: a pooled, Reset gzip writer produces
// byte-identical members to a fresh gzip.NewWriter, across reuse.
func TestGzipWriterPooledBytesIdentical(t *testing.T) {
	payloads := [][]byte{
		[]byte("hello pooled gzip"),
		bytes.Repeat([]byte(`{"s":"abc","f":"Win32 EXE","t":1619827200,"p":2,"n":70,"r":[]}`+"\n"), 4096),
		{},
	}
	for i, payload := range payloads {
		var want bytes.Buffer
		zw := gzip.NewWriter(&want)
		if _, err := zw.Write(payload); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		// Run the pooled path twice so the second pass sees a recycled
		// writer with prior state.
		for pass := 0; pass < 2; pass++ {
			var got bytes.Buffer
			pzw := GetGzipWriter(&got)
			if _, err := pzw.Write(payload); err != nil {
				t.Fatal(err)
			}
			if err := pzw.Close(); err != nil {
				t.Fatal(err)
			}
			PutGzipWriter(pzw)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("payload %d pass %d: pooled gzip bytes diverge from fresh writer", i, pass)
			}
		}
	}
}

func TestGzipReaderRoundTrip(t *testing.T) {
	var comp bytes.Buffer
	zw := GetGzipWriter(&comp)
	const msg = "round trip through the pooled codecs"
	if _, err := io.WriteString(zw, msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	PutGzipWriter(zw)
	for pass := 0; pass < 2; pass++ {
		zr, err := GetGzipReader(bytes.NewReader(comp.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		PutGzipReader(zr)
		if string(got) != msg {
			t.Fatalf("pass %d: read %q", pass, got)
		}
	}
}

func TestGzipReaderBadHeader(t *testing.T) {
	if _, err := GetGzipReader(bytes.NewReader([]byte("not gzip"))); err == nil {
		t.Fatal("expected header error")
	}
}

func TestBufReuse(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned %d bytes", len(b))
	}
	b = append(b, "some row bytes"...)
	PutBuf(b)
	b2 := GetBuf()
	if len(b2) != 0 {
		t.Fatalf("recycled buf has stale length %d", len(b2))
	}
	PutBuf(b2)
	PutBuf(nil) // zero-cap slices are dropped, not pooled
}

func TestBufferReuse(t *testing.T) {
	buf := GetBuffer()
	buf.WriteString("staged block")
	PutBuffer(buf)
	buf2 := GetBuffer()
	if buf2.Len() != 0 {
		t.Fatalf("recycled buffer holds %d bytes", buf2.Len())
	}
	PutBuffer(buf2)
}

// TestConcurrentCodecUse hammers the pools from many goroutines; run
// under -race this proves pooled state never crosses users mid-flight.
func TestConcurrentCodecUse(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				payload := []byte(fmt.Sprintf("goroutine %d payload %d", g, i))
				var comp bytes.Buffer
				zw := GetGzipWriter(&comp)
				zw.Write(payload)
				if err := zw.Close(); err != nil {
					t.Error(err)
					return
				}
				PutGzipWriter(zw)
				zr, err := GetGzipReader(bytes.NewReader(comp.Bytes()))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(zr)
				PutGzipReader(zr)
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("round trip: %q %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
