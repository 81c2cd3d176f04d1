package frame

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// field is one value of a payload in the cursor tests: kind names the
// Cursor method that reads it ('u' Uvarint, 'v' Varint, 'y' Byte, 'b'
// Bytes, 's' String, 'c' a uvarint-coded Count, 't' Take of n raw
// bytes), and only the member that kind uses is set.
type field struct {
	kind byte
	u    uint64
	v    int64
	b    []byte
}

// appendField writes f the way the Append twins do.
func appendField(dst []byte, f field) []byte {
	switch f.kind {
	case 'u', 'c':
		return AppendUvarint(dst, f.u)
	case 'v':
		return AppendVarint(dst, f.v)
	case 'y':
		return append(dst, byte(f.u))
	case 'b':
		return AppendBytes(dst, f.b)
	case 's':
		return AppendString(dst, string(f.b))
	}
	return append(dst, f.b...) // 't'
}

// readField reads one field of kind (for 't', of n bytes) off c.
func readField(c *Cursor, kind byte, n int) field {
	f := field{kind: kind}
	switch kind {
	case 'u':
		f.u = c.Uvarint()
	case 'c':
		f.u = uint64(c.Count(int64(c.Uvarint())))
	case 'v':
		f.v = c.Varint()
	case 'y':
		f.u = uint64(c.Byte())
	case 'b':
		f.b = c.Bytes()
	case 's':
		f.b = []byte(c.String())
	default:
		f.b = c.Take(int64(n))
	}
	if len(f.b) == 0 {
		f.b = nil
	}
	return f
}

var cursorPayloads = map[string][]field{
	"empty": nil,
	"batch": {{kind: 'u', u: 7}, {kind: 'c', u: 2}, {kind: 'b', b: []byte("click one")}, {kind: 'b', b: []byte("click two")}},
	"commit": {{kind: 'u', u: 1 << 40}, {kind: 'c', u: 2},
		{kind: 'y', u: 1}, {kind: 's', b: []byte("jobs")}, {kind: 's', b: []byte("j000001")}, {kind: 'b', b: bytes.Repeat([]byte("x"), 300)},
		{kind: 'y', u: 3}, {kind: 's', b: []byte("jobseq")}, {kind: 'u', u: 1}},
	"extremes": {{kind: 'u', u: math.MaxUint64}, {kind: 'v', v: math.MinInt64}, {kind: 'v', v: math.MaxInt64},
		{kind: 'u'}, {kind: 'v', v: -1}, {kind: 'b'}, {kind: 's'}, {kind: 'y', u: 0xff}, {kind: 't', b: []byte("raw")}, {kind: 'c'}},
}

// TestCursor: every payload reads back whole; one byte more is an
// error; and cut at any byte it is an error too — never a panic, and
// never a partial value: the fields whole before the cut read exactly,
// the one the cut lands in and every one after read as zero.
func TestCursor(t *testing.T) {
	for name, fields := range cursorPayloads {
		var payload []byte
		ends := make([]int, len(fields))
		for i, f := range fields {
			payload = appendField(payload, f)
			ends[i] = len(payload)
		}
		for cut := 0; cut <= len(payload)+1; cut++ {
			data := append(append([]byte(nil), payload...), 0)[:cut]
			c := NewCursor(data)
			failed := false
			for i, want := range fields {
				// A count is also refused when the cut leaves fewer bytes
				// than elements.
				failed = failed || ends[i] > cut || want.kind == 'c' && want.u > uint64(cut-ends[i])
				if failed {
					want = field{kind: want.kind}
				}
				if got := readField(&c, want.kind, len(want.b)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s cut at %d of %d: field %d read %+v, want %+v", name, cut, len(payload), i, got, want)
				}
			}
			err := c.Done()
			switch {
			case cut == len(payload) && err != nil:
				t.Fatalf("%s: whole payload: %v", name, err)
			case cut > len(payload) && (err == nil || !strings.Contains(err.Error(), "1 trailing")):
				t.Fatalf("%s: one byte past the payload: %v", name, err)
			case cut < len(payload) && err == nil:
				t.Fatalf("%s cut at %d of %d: accepted", name, cut, len(payload))
			}
		}
	}
}

// TestCursorRefuses: damage other than truncation.
func TestCursorRefuses(t *testing.T) {
	overflow := bytes.Repeat([]byte{0xff}, 11)
	huge := AppendUvarint(nil, math.MaxUint64)
	for _, tc := range []struct {
		name string
		data []byte
		read func(c *Cursor) any
	}{
		{"uvarint overflow", overflow, func(c *Cursor) any { return c.Uvarint() }},
		{"varint overflow", overflow, func(c *Cursor) any { return c.Varint() }},
		{"length past the end", []byte{3, 'a', 'b'}, func(c *Cursor) any { return c.Bytes() }},
		{"length above MaxInt64", huge, func(c *Cursor) any { return c.String() }},
		{"negative take", huge, func(c *Cursor) any { return c.Take(-1) }},
		{"count above the rest", []byte{3, 0, 0}, func(c *Cursor) any { return c.Count(int64(c.Uvarint())) }},
		{"negative count", huge, func(c *Cursor) any { return c.Count(-1) }},
	} {
		c := NewCursor(tc.data)
		if got := tc.read(&c); !reflect.ValueOf(got).IsZero() || c.Done() == nil {
			t.Errorf("%s: read %v, Done() = %v", tc.name, got, c.Done())
		}
		if c.Uvarint() != 0 || c.Byte() != 0 || c.Take(0) != nil {
			t.Errorf("%s: the cursor read on after failing", tc.name)
		}
	}
}

// FuzzCursor drives arbitrary reads over arbitrary bytes: no panic,
// bytes only ever consumed from the front, values inside the payload,
// a failed read returns zero, and after it nothing moves again.
func FuzzCursor(f *testing.F) {
	for _, fields := range cursorPayloads {
		var payload, script []byte
		for _, fl := range fields {
			payload = appendField(payload, fl)
			script = append(script, fl.kind)
		}
		f.Add(payload, script)
		f.Add(payload[:len(payload)/2], script) // a torn one
	}
	f.Fuzz(func(t *testing.T, data, script []byte) {
		c := NewCursor(data)
		for i, op := range script {
			wasBad, left := c.bad, len(c.b)
			if !strings.ContainsRune("uvybsct", rune(op)) {
				op = "uvybsct"[int(op)%7]
			}
			got := readField(&c, op, i%5)
			if len(c.b) > left || wasBad && (len(c.b) != left || !c.bad) {
				t.Fatalf("op %d (%c): %d bytes left after %d, bad %v after %v", i, got.kind, len(c.b), left, c.bad, wasBad)
			}
			if c.bad && (got.u != 0 || got.v != 0 || got.b != nil) {
				t.Fatalf("op %d (%c): failed read returned %+v", i, got.kind, got)
			}
			if len(got.b) > left-len(c.b) {
				t.Fatalf("op %d (%c): %d bytes returned, %d consumed", i, got.kind, len(got.b), left-len(c.b))
			}
		}
		if err := c.Done(); (err == nil) != (!c.bad && len(c.b) == 0) {
			t.Fatalf("Done() = %v with bad %v and %d bytes left", err, c.bad, len(c.b))
		}
	})
}
