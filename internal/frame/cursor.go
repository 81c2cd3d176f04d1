package frame

import (
	"encoding/binary"
	"fmt"
)

// Cursor reads the fields of one frame payload front to back. The
// first field that does not decode — a varint cut short or overflowing,
// a length or count the remaining bytes cannot hold — makes the cursor
// bad for good: every later read returns the zero value and Done
// reports where it happened. A codec therefore reads straight through
// and checks once, and can never act on half a value. The durable
// payload codecs (ingest batches and checkpoint headers, the
// scheduler's records and images, core's state image) are all written over it;
// the Append functions below are its encoding twins.
type Cursor struct {
	b   []byte
	n   int // len(b) at the start, for Done's offsets
	bad bool
}

// NewCursor returns a cursor at the start of payload.
func NewCursor(payload []byte) Cursor {
	return Cursor{b: payload, n: len(payload)}
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if v, n := binary.Uvarint(c.b); c.skip(n) {
		return v
	}
	return 0
}

// Varint reads a signed (zig-zag) varint.
func (c *Cursor) Varint() int64 {
	if v, n := binary.Varint(c.b); c.skip(n) {
		return v
	}
	return 0
}

// skip steps past an n-byte varint; n <= 0 is encoding/binary's "cut
// short or overflowing".
func (c *Cursor) skip(n int) bool {
	if c.bad || n <= 0 {
		c.bad = true
		return false
	}
	c.b = c.b[n:]
	return true
}

// Take reads the next n raw bytes, aliasing the payload with the
// capacity clipped; n negative or past the end is an error.
func (c *Cursor) Take(n int64) []byte {
	if c.bad || n < 0 || n > int64(len(c.b)) {
		c.bad = true
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// Bytes reads a uvarint length and that many bytes, aliasing the
// payload.
func (c *Cursor) Bytes() []byte { return c.Take(int64(c.Uvarint())) }

// String reads a uvarint length and that many bytes as a string.
func (c *Cursor) String() string { return string(c.Bytes()) }

// Count vets a decoded element count before it sizes a loop or an
// allocation: every element takes at least one byte, so a count that
// is negative or exceeds the bytes left is damage.
func (c *Cursor) Count(n int64) int {
	if c.bad || n < 0 || n > int64(len(c.b)) {
		c.bad = true
		return 0
	}
	return int(n)
}

// Done returns nil when every read succeeded and the payload was
// consumed exactly, and otherwise an error saying where it went wrong.
func (c *Cursor) Done() error {
	switch {
	case c.bad:
		return fmt.Errorf("field at byte %d of %d does not decode", c.n-len(c.b), c.n)
	case len(c.b) != 0:
		return fmt.Errorf("%d trailing bytes", len(c.b))
	}
	return nil
}

// AppendUvarint appends v as Cursor.Uvarint reads it.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as Cursor.Varint reads it.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendBytes appends b as Cursor.Bytes reads it.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}
