package frame

import (
	"bytes"
	"testing"
)

// The frame codec runs on every checked read and write when checksums
// are enabled; none of its operations may allocate (the old
// headerBytes helper leaked one header slice per call).

func TestFrameAppendVerifyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 512)
	dst := make([]byte, 0, len(payload)+int(Overhead(len(payload))))
	var sum uint32
	var size int

	if a := testing.AllocsPerRun(50, func() {
		dst = Append(dst[:0], payload)
	}); a != 0 {
		t.Fatalf("Append allocated %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		sum = Checksum(payload)
	}); a != 0 {
		t.Fatalf("Checksum allocated %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		p, n, err := Next(dst)
		if err != nil {
			t.Fatal(err)
		}
		size = n
		sum += uint32(len(p))
	}); a != 0 {
		t.Fatalf("Next allocated %.1f times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		size += int(Overhead(len(payload)))
	}); a != 0 {
		t.Fatalf("Overhead allocated %.1f times, want 0", a)
	}
	_, _ = sum, size
}

// TestOverheadMatchesAppend pins the closed-form Overhead against the
// bytes Append actually produces.
func TestOverheadMatchesAppend(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 300, 16383, 16384, 1 << 20} {
		payload := make([]byte, n)
		got := int64(len(Append(nil, payload))) - int64(n)
		if got != Overhead(n) {
			t.Fatalf("Overhead(%d) = %d, Append adds %d", n, Overhead(n), got)
		}
	}
}

func TestFrameOverheadFromFrameLength(t *testing.T) {
	check := func(n int) {
		if got := FrameOverhead(n + int(Overhead(n))); got != Overhead(n) {
			t.Fatalf("a frame around %d payload bytes: FrameOverhead = %d, want %d", n, got, Overhead(n))
		}
	}
	for n := range 1 << 16 {
		check(n)
	}
	for k := 1; k < 9; k++ { // every uvarint length boundary
		for n := 1<<(7*k) - 40; n < 1<<(7*k)+40; n++ {
			check(n)
		}
	}
}

func TestAppendFramesAPayloadInPlace(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 20} {
		b := make([]byte, MaxHeader, MaxHeader+n+TrailerSize)
		for i := range n {
			b = append(b, byte(i*7))
		}
		want := Append(nil, b[MaxHeader:])
		got := Append(b[:0], b[MaxHeader:])
		if !bytes.Equal(got, want) || &got[0] != &b[0] {
			t.Fatalf("%d-byte payload framed in place differs from a copy's frame, or moved", n)
		}
	}
}
