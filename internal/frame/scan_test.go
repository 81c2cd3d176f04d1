package frame

import (
	"bytes"
	"testing"
)

// buildStream frames the given payloads back to back and returns the
// stream plus each frame's end offset (the valid truncation points).
func buildStream(payloads [][]byte) (stream []byte, bounds []int64) {
	for _, p := range payloads {
		stream = Append(stream, p)
		bounds = append(bounds, int64(len(stream)))
	}
	return stream, bounds
}

func scanPayloads() [][]byte {
	return [][]byte{
		[]byte("first"),
		{},
		bytes.Repeat([]byte{0xAB}, 300),
		[]byte("tail"),
	}
}

func TestScanTailClean(t *testing.T) {
	payloads := scanPayloads()
	stream, bounds := buildStream(payloads)
	var got [][]byte
	res := ScanTail(stream, func(p []byte) {
		got = append(got, append([]byte(nil), p...))
	})
	if res.Reason != ScanClean || res.Frames != len(payloads) || res.Good != bounds[len(bounds)-1] {
		t.Fatalf("clean scan: %+v", res)
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if res := ScanTail(nil, nil); res.Reason != ScanClean || res.Frames != 0 || res.Good != 0 {
		t.Fatalf("empty scan: %+v", res)
	}
}

// TestScanTailTorn truncates the stream at every byte position — the
// torn-write model: a crash persists an arbitrary prefix. Every
// truncation must either land exactly on a frame boundary (Clean) or
// be classified Torn with Good at the last boundary not past the cut.
func TestScanTailTorn(t *testing.T) {
	stream, bounds := buildStream(scanPayloads())
	boundary := map[int64]bool{0: true}
	for _, b := range bounds {
		boundary[b] = true
	}
	lastBoundaryAtOrBefore := func(cut int64) int64 {
		var best int64
		for _, b := range bounds {
			if b <= cut && b > best {
				best = b
			}
		}
		return best
	}
	for cut := int64(0); cut <= int64(len(stream)); cut++ {
		res := ScanTail(stream[:cut], nil)
		want := lastBoundaryAtOrBefore(cut)
		if res.Good != want {
			t.Fatalf("cut %d: Good=%d want %d", cut, res.Good, want)
		}
		if boundary[cut] {
			if res.Reason != ScanClean {
				t.Fatalf("cut %d on boundary: reason %v", cut, res.Reason)
			}
		} else if res.Reason != ScanTorn {
			t.Fatalf("cut %d mid-frame: reason %v (want torn)", cut, res.Reason)
		}
	}
}

// TestScanTailBitFlip flips every bit of one interior frame in turn:
// the scan must stop at that frame's start (never mis-resync past it),
// and flips in a complete frame's payload or trailer must read as
// Corrupt, not Torn — the distinction WAL recovery uses to refuse
// trimming once-durable data.
func TestScanTailBitFlip(t *testing.T) {
	payloads := scanPayloads()
	stream, bounds := buildStream(payloads)
	frameStart, frameEnd := bounds[1], bounds[2] // the 300-byte frame
	hdrLen := int64(1 + 2)                       // magic + 2-byte uvarint(300)
	for off := frameStart; off < frameEnd; off++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), stream...)
			bad[off] ^= 1 << bit
			res := ScanTail(bad, nil)
			if res.Reason == ScanClean && res.Good == int64(len(stream)) {
				t.Fatalf("flip at %d/%d went undetected", off, bit)
			}
			if res.Good > frameStart {
				// A flip inside the frame must not let the scan claim
				// bytes of it as good.
				t.Fatalf("flip at %d/%d: Good=%d past frame start %d", off, bit, res.Good, frameStart)
			}
			if off >= frameStart+hdrLen && res.Reason != ScanCorrupt {
				// Payload/trailer flips leave a complete frame in
				// place: unambiguously corruption.
				t.Fatalf("flip at %d/%d: reason %v (want corrupt)", off, bit, res.Reason)
			}
		}
	}
}

// TestScanTailGarbage pins the header edge cases: wrong magic is
// corrupt, an impossible (overflowing) length field is corrupt, and a
// length field promising more bytes than remain is torn.
func TestScanTailGarbage(t *testing.T) {
	good := Append(nil, []byte("ok"))
	cases := []struct {
		name string
		tail []byte
		want ScanReason
	}{
		{"wrong-magic", []byte{0x00, 0x01, 'x'}, ScanCorrupt},
		{"magic-only", []byte{Magic}, ScanTorn},
		{"len-cut-short", []byte{Magic, 0x80}, ScanTorn},
		{"len-overflow", append([]byte{Magic}, bytes.Repeat([]byte{0xFF}, 10)...), ScanCorrupt},
		{"len-past-eof", []byte{Magic, 0x20, 'a', 'b'}, ScanTorn},
	}
	for _, c := range cases {
		res := ScanTail(append(append([]byte(nil), good...), c.tail...), nil)
		if res.Frames != 1 || res.Good != int64(len(good)) || res.Reason != c.want {
			t.Fatalf("%s: %+v (want reason %v)", c.name, res, c.want)
		}
	}
}
