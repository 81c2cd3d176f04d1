package queries

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mr"
)

// orderedState packs n clicks with non-decreasing timestamps drawn
// from a small range (so duplicates occur within and across states)
// behind a header with the given session and lastEmit.
func orderedState(rng *rand.Rand, n, session int, lastEmit int64) []byte {
	st := make([]byte, sessHeader)
	sessSetSession(st, session)
	sessSetLastEmit(st, lastEmit)
	ts := int64(rng.Intn(4))
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(3)) // 0 repeats the previous timestamp
		st = appendClick(st, ts, []byte(fmt.Sprintf("%013d\tu%07d\t/p%d", ts, rng.Intn(100), rng.Intn(1000))))
	}
	return st
}

// checkSessionMerge holds the linear merge to the reference on one
// pair of states, for a nil, a short and a roomy dst, and checks the
// dst contract: the result is a itself or built in dst, and a fresh
// result leaves a untouched.
func checkSessionMerge(t *testing.T, q *Sessionization, a, b []byte) {
	t.Helper()
	want := referenceSessionMerge(bytes.Clone(a), b)
	for _, dst := range [][]byte{nil, make([]byte, 3, 8), make([]byte, 0, 4096)} {
		a0, b0 := bytes.Clone(a), bytes.Clone(b)
		got := q.MergeStates(dst, []byte("u"), a0, b0)
		if !bytes.Equal(got, want) {
			t.Fatalf("merge(%x, %x)\n got %x\nwant %x", a, b, got, want)
		}
		inPlace := cap(got) > 0 && cap(a0) > 0 && &got[:1][0] == &a0[:1][0]
		if inPlace && len(got) != len(a) {
			t.Fatalf("result aliases a at length %d, a had %d", len(got), len(a))
		}
		if !inPlace && cap(dst) >= len(got) && len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Fatal("a fresh result was not built in the roomy dst")
		}
		if !inPlace && !bytes.Equal(a0, a) || !bytes.Equal(b0, b) {
			t.Fatal("merge wrote to an input it did not return")
		}
	}
}

// TestSessionMergeMatchesReference: the linear two-way merge equals the
// stable sort of a‖b it replaced on seeded random ordered states —
// empty and header-only sides, duplicate timestamps within and across
// the sides, lastEmit ahead on either side, states at and over the
// configured size.
func TestSessionMergeMatchesReference(t *testing.T) {
	q := newSess()
	rng := rand.New(rand.NewSource(17))
	sides := func(i int) []byte {
		switch i % 8 {
		case 0:
			return nil // identity state
		case 1:
			return orderedState(rng, 0, rng.Intn(5), int64(rng.Intn(9))) // header only
		case 2:
			return orderedState(rng, 40, 3, 0) // far over stateSize
		default:
			return orderedState(rng, 1+rng.Intn(7), rng.Intn(5), int64(rng.Intn(9)))
		}
	}
	for i := 0; i < 4000; i++ {
		checkSessionMerge(t, q, sides(rng.Intn(8)), sides(rng.Intn(8)))
	}
	// A state filled to exactly stateSize and one click more.
	full := orderedState(rng, 0, 0, 0)
	for rem := q.stateSize - len(full); rem > 0; rem = q.stateSize - len(full) {
		l := min(40, rem-10)
		if left := rem - 10 - l; left > 0 && left < 11 {
			l -= 11 // leave room for a last click's 10-byte header
		}
		full = appendClick(full, int64(len(full)), bytes.Repeat([]byte{'x'}, l))
	}
	if len(full) != q.stateSize {
		t.Fatalf("test setup: state of %d bytes, want %d", len(full), q.stateSize)
	}
	checkSessionMerge(t, q, full, orderedState(rng, 1, 0, 5))
	checkSessionMerge(t, q, orderedState(rng, 1, 0, 5), full)
}

// FuzzSessionMerge is the same differential over fuzzer-chosen click
// lists: each byte of a side is one click's timestamp step (0 = a
// duplicate) and record length.
func FuzzSessionMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{0, 0, 9}, int64(0), int64(7))
	f.Add([]byte{}, []byte{5}, int64(3), int64(0))
	f.Add([]byte{200, 0, 0, 17}, []byte{}, int64(0), int64(0))
	q := newSess()
	build := func(steps []byte, lastEmit int64) []byte {
		st := make([]byte, sessHeader)
		sessSetLastEmit(st, lastEmit)
		var ts int64
		for i, s := range steps {
			ts += int64(s % 4)
			st = appendClick(st, ts, bytes.Repeat([]byte{byte('a' + i%26)}, int(s/4)))
		}
		return st
	}
	f.Fuzz(func(t *testing.T, a, b []byte, lastA, lastB int64) {
		if len(a) > 64 || len(b) > 64 {
			return
		}
		checkSessionMerge(t, q, build(a, lastA), build(b, lastB))
	})
}

// TestIncrementalAllocs pins init() and cb() at zero heap allocations
// once the caller's dst has grown to fit, for every implementation.
func TestIncrementalAllocs(t *testing.T) {
	key := []byte("u0000001")
	rec := click(7*minute, "u0000001", "/a")
	cases := []struct {
		name  string
		inc   mr.Incremental
		value []byte
	}{
		{"counting", NewClickCount().(mr.Incremental), []byte("1")},
		{"windowcount", NewWindowCount(time.Minute, time.Second), []byte("1")},
		{"sessionization", newSess(), rec},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.inc.Init(nil, key, tc.value)
			a = tc.inc.MergeStates(nil, key, a, tc.inc.Init(nil, key, tc.value))
			b := tc.inc.Init(nil, key, tc.value)
			st, merged := make([]byte, 0, 256), make([]byte, 0, 1024)
			if n := testing.AllocsPerRun(100, func() { st = tc.inc.Init(st[:0], key, tc.value) }); n != 0 {
				t.Errorf("Init allocates %.0f objects per call", n)
			}
			if n := testing.AllocsPerRun(100, func() { mr.MergeInto(tc.inc, &merged, key, a, b) }); n != 0 {
				t.Errorf("MergeStates allocates %.0f objects per call", n)
			}
		})
	}
}
