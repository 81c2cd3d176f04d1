package core

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// listQuery keeps the last listCap value bytes of a key as its state:
// a state outgrows StateSize as it fills, then merges in place at
// unchanged length. The scavenger retires states of two bytes or more
// that end in a multiple of three; the evictor absorbs states that start with an even
// byte and lets the rest spill.
type listQuery struct {
	scavenged, evicted, absorbed int
	maxState                     int
}

const listCap = 24

func (q *listQuery) Name() string                                            { return "list" }
func (q *listQuery) Map(record []byte, emit func(k, v []byte))               { emit(record[1:], record[:1]) }
func (q *listQuery) Reduce(key []byte, _ kvenc.ValueIter, _ mr.OutputWriter) {}
func (q *listQuery) Init(dst, _, value []byte) []byte                        { return append(dst, value...) }
func (q *listQuery) StateSize() int                                          { return 8 }
func (q *listQuery) Finalize(key, state []byte, out mr.OutputWriter)         { out.Emit(key, state) }

func (q *listQuery) MergeStates(dst, _, a, b []byte) []byte {
	if len(a)+len(b) <= listCap {
		dst = append(append(dst[:0], a...), b...)
		q.maxState = max(q.maxState, len(dst))
		return dst
	}
	n := len(a) - min(len(b), len(a))
	copy(a, a[len(a)-n:])
	copy(a[n:], b[len(b)-(len(a)-n):])
	return a
}

func (q *listQuery) Scavenge(_, state []byte) bool {
	if len(state) > 1 && state[len(state)-1]%3 == 0 {
		q.scavenged++
		return true
	}
	return false
}

func (q *listQuery) OnEvict(key, state []byte, out mr.OutputWriter) bool {
	q.evicted++
	if state[0]%2 == 0 {
		q.absorbed++
		out.Emit(key, state)
		return true
	}
	return false
}

// TestDINCImagesPinned frames the checkpoint images of a small fixed
// DINC-hash run — evictions, scavenges, overflows, states grown past
// their slot — and holds each to a SHA-256 digest, with a digest of the
// run's output stream. The digests were taken from the map-based
// FREQUENT summary, before it moved onto bytestore.Table. A reducer
// restored from the middle image and fed the rest of the stream must
// frame the same later images.
func TestDINCImagesPinned(t *testing.T) {
	want := []string{ // after 1,000, 2,000, … 6,000 tuples
		"a1a0e49bfd18f546bd0e5fca1291a44ce93f2748766e28ae092fb571f075ec8c",
		"1394acfe2585d862a4e4cad468c404c26c86f969067c958e562533236a73c5a3",
		"0ea557fe691fb340a31ac334741c60cf61262b60750f2887319ae104b40c3a9b",
		"30d9656e78a874834501f0bf0bfffb79a7d59ae645cc68a526e8e9dce8a234fd",
		"92966265e6950c53bbab8d5ae1cc764ad291f4aed5089329e43e9834360fc96e",
		"fbd5e2bc394eeeb1415be2f4741527e9f6004fe0ab52aa0f9777bd90c0ab2da3",
	}
	const wantOut = "fea92ed5f02a19c6d0a6f7bc6abc2d6a53e1d29129a36d81f6fec4c6780a4991"
	const tuples, every = 6000, 1000
	rng := rand.New(rand.NewSource(5))
	z := rand.NewZipf(rng, 1.2, 1, 299)
	stream := make([][]byte, tuples)
	for i := range stream {
		stream[i] = fmt.Appendf(nil, "%c%03d", 'a'+byte(i%26), z.Uint64())
	}
	cfg := DINCHashConfig{
		Prefix: "t", MemBudget: 3 << 10, Page: 256, ReadSegment: 1 << 10,
		ExpectedDistinctKeys: 300, KeyBytes: 3, ScanEvery: 50,
	}
	// feed frames an image every so many tuples, as the engine does,
	// before the reducer takes another.
	type image struct {
		framed []byte
		refs   []BucketRef
	}
	feed := func(r *DINCHashReducer, q *listQuery, from, to int, images map[int]image) {
		for i := from; i < to; i++ {
			q.Map(stream[i], func(k, v []byte) { r.Consume(k, q.Init(nil, k, v)) })
			if (i+1)%every == 0 {
				img := r.Snapshot()
				images[i+1] = image{FramedImage(nil, img), img.Refs}
			}
		}
	}
	digest := func(img image) string { return fmt.Sprintf("%x", sha256.Sum256(img.framed)) }
	runSim(t, func(rt *Runtime) {
		q := &listQuery{}
		out := sha256.New()
		r := NewDINCHashReducer(rt, q, cfg, mr.FuncOutput(func(k, v []byte) {
			out.Write(fmt.Appendf(nil, "%q=%q;", k, v))
		}))
		images := map[int]image{}
		feed(r, q, 0, tuples, images)
		spilled := r.SpilledPairs()
		r.Finish()
		t.Logf("s=%d scavenged=%d evicted=%d absorbed=%d spilled=%d max state=%d", r.sum.Slots(), q.scavenged, q.evicted, q.absorbed, spilled, q.maxState)
		if q.scavenged == 0 || q.evicted <= q.scavenged || spilled <= int64(q.evicted-q.absorbed) || q.maxState <= q.StateSize() {
			t.Fatal("test setup: the run lacks a scavenge, an eviction, an overflow or a state past its slot")
		}
		got := make([]string, 0, len(want))
		for n := every; n <= tuples; n += every {
			got = append(got, digest(images[n]))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("DINC images changed:\n got %q\nwant %q", got, want)
		}
		if o := fmt.Sprintf("%x", out.Sum(nil)); o != wantOut {
			t.Errorf("DINC output changed: got %s want %s", o, wantOut)
		}

		mid := tuples / 2
		img, err := DecodeFramedImage(images[mid].framed)
		if err != nil {
			t.Fatal(err)
		}
		img.Refs = images[mid].refs
		q2 := &listQuery{}
		cfg2 := cfg
		cfg2.Prefix = "restored"
		r2 := NewDINCHashReducer(rt, q2, cfg2, mr.DiscardOutput)
		r2.Restore(img)
		resumed := map[int]image{}
		feed(r2, q2, mid, tuples, resumed)
		for n := mid + every; n <= tuples; n += every {
			if a, b := digest(images[n]), digest(resumed[n]); a != b {
				t.Errorf("image at %d: restored run framed %s, uninterrupted %s", n, b, a)
			}
		}
	})
}
