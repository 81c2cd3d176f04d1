package ingest

import (
	"errors"
	"fmt"

	"repro/internal/frame"
)

// ErrBadBatch reports a WAL batch payload that does not decode. A
// frame that verified its CRC but fails here means a software bug (or
// damage beyond CRC32C's guarantee), never a torn write — recovery
// refuses to guess and fails loudly.
var ErrBadBatch = errors.New("ingest: malformed batch payload")

// Batch payload layout, carried as one CRC32C frame per WAL append:
//
//	[seq uvarint][count uvarint]([len uvarint][record bytes])*
//
// seq is the global batch sequence number (1-based, monotone across
// segments); recovery asserts contiguity so a lost sealed segment can
// never be skipped silently.

// appendBatch encodes one batch onto dst.
func appendBatch(dst []byte, seq int64, records [][]byte) []byte {
	dst = frame.AppendUvarint(dst, uint64(seq))
	dst = frame.AppendUvarint(dst, uint64(len(records)))
	for _, rec := range records {
		dst = frame.AppendBytes(dst, rec)
	}
	return dst
}

// decodeBatch decodes a batch payload. Records alias p.
func decodeBatch(p []byte) (seq int64, records [][]byte, err error) {
	c := frame.NewCursor(p)
	seq = int64(c.Uvarint())
	records = make([][]byte, c.Count(int64(c.Uvarint())))
	for i := range records {
		records[i] = c.Bytes()
	}
	if err := c.Done(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadBatch, err)
	}
	return seq, records, nil
}
