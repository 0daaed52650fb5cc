// Block format versions and dispatch.
//
// A partition file is a sequence of independently closed gzip members
// ("blocks"). What a member's *decompressed payload* holds comes in
// versions:
//
//	v1  JSONL — one compact scan row (rowcodec.go) per line. What
//	    earlier builds wrote; readable forever, written no more
//	    (vtstore migrate rewrites it to v2).
//	v2  columnar — a "VTCB" magic header followed by per-block
//	    dictionaries and column segments (colcodec.go). Scans and
//	    StatsByType decode only the columns they need.
//
// Every reader dispatches per block: the sidecar records each block's
// version, and sidecar-less paths sniff the payload's leading bytes
// (a v1 line always starts with '{', never with the v2 magic). A
// block whose version is newer than the reader understands is
// rejected with *FormatError — never silently misread — so a store
// written by a future format fails loudly and points at the fix.
package store

import (
	"errors"
	"fmt"
)

// Block format versions.
const (
	// FormatV1 is the JSONL row encoding: one compact JSON object per
	// line per scan, gzip members cut at the block-size target.
	FormatV1 = 1
	// FormatV2 is the dictionary-encoded columnar block encoding.
	FormatV2 = 2

	// FormatDefault is the format every new block is written in, by
	// ingest and by Migrate alike. Older versions stay readable.
	FormatDefault = FormatV2

	// formatMax is the newest version this build reads and writes.
	formatMax = FormatV2
)

// colMagic opens every v2 (and later) columnar block payload; the
// byte after it is the payload's format version.
const colMagic = "VTCB"

// ErrUnsupportedFormat matches (via errors.Is) every *FormatError.
var ErrUnsupportedFormat = errors.New("store: unsupported block format")

// FormatError reports a partition block or index sidecar written in a
// format version this reader does not support. It is the typed,
// versioned rejection the compatibility matrix pins: old data is
// readable forever, but data from the future fails loudly instead of
// being misparsed.
type FormatError struct {
	// Path is the partition or sidecar file holding the block.
	Path string
	// Version is the block's declared format version.
	Version int
	// Max is the newest version this reader supports.
	Max int
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("store: %s: block format v%d not supported (this reader handles up to v%d); upgrade the binary, or vtstore migrate with a newer build",
		e.Path, e.Version, e.Max)
}

// Is makes errors.Is(err, ErrUnsupportedFormat) match any FormatError.
func (e *FormatError) Is(target error) bool { return target == ErrUnsupportedFormat }

// blockVer normalizes a sidecar block entry's version: entries
// written before versions existed carry 0, which means v1.
func blockVer(bm blockMeta) int {
	if bm.Ver == 0 {
		return FormatV1
	}
	return bm.Ver
}

// sniffVersion classifies a member payload by its leading bytes:
// JSONL rows always start with '{' (or are empty), columnar payloads
// start with colMagic + a version byte.
func sniffVersion(head []byte) int {
	if len(head) >= len(colMagic)+1 && string(head[:len(colMagic)]) == colMagic {
		return int(head[len(colMagic)])
	}
	return FormatV1
}
