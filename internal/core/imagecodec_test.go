package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/frequent"
)

// TestImageCodecRoundTrip pins the exact-inverse contract the framed
// checkpoint path relies on: decode(marshal(img)) reproduces every
// field, including the FREQUENT sketch counters that make replay
// bit-identical.
func TestImageCodecRoundTrip(t *testing.T) {
	imgs := []*StateImage{
		{},
		{
			Table:     []byte("k1v1k2v2"),
			TableKeys: 2,
			Buckets:   [][]byte{[]byte("bucket0"), nil, []byte("bucket2")},
			BucketPairs: []int64{
				3, 0, 7,
			},
			Received: 1234, InMemRecs: 77, DirectOut: -1, SinceScan: 9,
		},
		{
			Sketch: []frequent.Saved{
				{Key: []byte("hot"), State: []byte{1, 2, 3}, C: 99, T: -5, Seq: 1},
				{Key: nil, State: nil, C: 0, T: 0, Seq: 2},
			},
			SketchDebt: 11, SketchSeq: 42, SketchM: 1 << 40,
		},
	}
	for i, img := range imgs {
		got, err := UnmarshalImage(MarshalImage(img))
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		if got.StateBytes() != img.StateBytes() || !slices.Equal(got.BucketLens(), img.BucketLens()) {
			t.Fatalf("image %d: sizes changed", i)
		}
		norm := func(x *StateImage) *StateImage {
			// The codec canonicalizes empty blobs to nil; compare modulo
			// that, since every consumer treats them identically.
			y := *x
			if len(y.Table) == 0 {
				y.Table = nil
			}
			for j := range y.Buckets {
				if len(y.Buckets[j]) == 0 {
					y.Buckets[j] = nil
				}
			}
			return &y
		}
		if !reflect.DeepEqual(norm(img), norm(got)) {
			t.Fatalf("image %d: round trip differs:\n got %+v\nwant %+v", i, got, img)
		}
	}
}

// TestImageCodecRejectsDamage feeds truncations and flips through the
// decoder: it must error, never mis-decode silently or loop.
func TestImageCodecRejectsDamage(t *testing.T) {
	img := &StateImage{
		Table:       []byte("k1v1"),
		TableKeys:   1,
		Sketch:      []frequent.Saved{{Key: []byte("k"), State: []byte("s"), C: 5, T: 1, Seq: 2}},
		Buckets:     [][]byte{[]byte("bb")},
		BucketPairs: []int64{1},
		Received:    10,
	}
	blob := MarshalImage(img)
	if _, err := UnmarshalImage(blob); err != nil {
		t.Fatalf("clean blob: %v", err)
	}
	for cut := 0; cut < len(blob); cut++ {
		if _, err := UnmarshalImage(blob[:cut]); err == nil {
			// A truncation that still decodes would mean trailing fields
			// were silently zeroed.
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
	if _, err := UnmarshalImage(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}
