package kvenc

import (
	"bytes"
	"testing"
)

// FuzzRecordRoundTrip encodes arbitrary key/value pairs and asserts
// the stream decodes back to exactly what was written, in order, with
// no error. Pairs are derived from a single fuzz blob so the corpus
// explores lengths (including empty keys/values) freely.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte("k1v1k2v2"), uint8(2))
	f.Add([]byte(""), uint8(0))
	f.Add([]byte("\x00\xff long value material here"), uint8(7))
	f.Fuzz(func(t *testing.T, blob []byte, n uint8) {
		// Carve up to n pairs out of blob deterministically.
		type pair struct{ k, v []byte }
		var pairs []pair
		var stream []byte
		rest := blob
		for i := 0; i < int(n)%16; i++ {
			kl := 0
			if len(rest) > 0 {
				kl = int(rest[0]) % (len(rest) + 1)
				rest = rest[1:]
			}
			if kl > len(rest) {
				kl = len(rest)
			}
			k := rest[:kl]
			rest = rest[kl:]
			vl := len(rest) / 2
			v := rest[:vl]
			rest = rest[vl:]
			pairs = append(pairs, pair{k, v})
			stream = AppendPair(stream, k, v)
		}
		it := NewIterator(stream)
		for i, p := range pairs {
			k, v, ok := it.Next()
			if !ok {
				t.Fatalf("stream ended at pair %d of %d", i, len(pairs))
			}
			if !bytes.Equal(k, p.k) || !bytes.Equal(v, p.v) {
				t.Fatalf("pair %d: got (%q,%q) want (%q,%q)", i, k, v, p.k, p.v)
			}
		}
		if _, _, ok := it.Next(); ok {
			t.Fatal("extra pair after round trip")
		}
		if it.Err() != nil {
			t.Fatalf("round trip produced error: %v", it.Err())
		}
		if got := Count(stream); got != len(pairs) {
			t.Fatalf("Count=%d want %d", got, len(pairs))
		}
	})
}

// FuzzRunIterator feeds arbitrary (mostly corrupt) bytes through every
// stream consumer: none may panic — worker goroutines must not bring
// down the kernel — and an iterator that stops early must report
// ErrCorrupt. Valid prefixes decode normally.
func FuzzRunIterator(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendPair(nil, []byte("key"), []byte("value")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x05, 0x05, 'a'}) // truncated pair
	corrupted := AppendPair(nil, []byte("abc"), []byte("def"))
	corrupted[0] = 0x7f // key length far beyond the stream
	f.Add(corrupted)
	f.Fuzz(func(t *testing.T, data []byte) {
		it := NewIterator(data)
		consumed := 0
		for {
			k, v, ok := it.Next()
			if !ok {
				break
			}
			consumed += len(k) + len(v)
		}
		if it.Err() != nil && it.Err() != ErrCorrupt {
			t.Fatalf("unexpected error type: %v", it.Err())
		}
		// Err must be sticky and Next must stay at end.
		if _, _, ok := it.Next(); ok {
			t.Fatal("Next returned a pair after reporting end")
		}
		// The other consumers must tolerate the same bytes.
		Count(data)
		IsSorted(data)
		sorted, n := SortStream(data)
		if Count(sorted) != n {
			t.Fatalf("SortStream reported %d pairs, stream has %d", n, Count(sorted))
		}
		MergeGroups([][]byte{data}, func(key []byte, vals ValueIter) bool {
			SliceValues(vals)
			return true
		})
	})
}

// FuzzMergeMatchesHeap deals the pairs of an arbitrary stream into up
// to 32 sorted runs (its undecodable tail rides on the last) and holds
// every consumer of the loser tree — the cached key prefixes, the
// pair-copying MergeStreamTo, Groups — to the heap merger's stream,
// tie order and error.
func FuzzMergeMatchesHeap(f *testing.F) {
	stream := func(keys ...string) []byte {
		var out []byte
		for i, k := range keys {
			out = AppendPair(out, []byte(k), []byte{byte(i)})
		}
		return out
	}
	f.Add(stream("prefix00a", "prefix00", "prefix00b", "prefix00a", "prefix01"), uint8(3))    // equal first eight bytes
	f.Add(stream("abc", "a", "", "abcdefg", "ab", ""), uint8(2))                              // shorter than eight, and empty
	f.Add(stream("ab\x00", "ab", "ab", "ab\x00\x00", "\x00", ""), uint8(2))                   // equal padded prefix, different keys
	f.Add(stream("u0000001", "u000000", "u000000\x00", "u0000001", "", "u0000001"), uint8(3)) // short-key ties
	f.Add(stream("k", "k", "k", "k", "k", "k", "k", "k", "k", "k", "k", "k"), uint8(11))      // equal keys in many runs
	f.Add(append(stream("b", "a"), 0x05, 0x05, 'x'), uint8(1))                                // truncated tail
	f.Add([]byte{0x80, 0x00, 0x00}, uint8(0))                                                 // padded length varint
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		runs := make([][]byte, 1+int(k)%32)
		rest, n := data, 0
		for {
			_, _, end, ok := scanPair(rest)
			if !ok {
				break
			}
			runs[n%len(runs)] = append(runs[n%len(runs)], rest[:end]...)
			rest, n = rest[end:], n+1
		}
		for i := range runs {
			runs[i], _ = SortStream(runs[i])
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], rest...)
		got, gerr := mergeEveryWay(t, runs)
		want, werr := drainMerger(newHeapMerger(runs))
		if !bytes.Equal(got, want) || gerr != werr {
			t.Fatalf("loser tree merged to %d bytes (%v), heap reference to %d (%v)", len(got), gerr, len(want), werr)
		}
	})
}

// TestScanPairFastPathMatchesGeneral holds scanPair's branch for two
// one-byte lengths to the varint decoder it bypasses, over every length
// pair around the one-byte boundary — whole, truncated, with bytes
// following — and over headers that promise more than there is.
func TestScanPairFastPathMatchesGeneral(t *testing.T) {
	check := func(data []byte) {
		t.Helper()
		ko, ke, e, ok := scanPair(data)
		wko, wke, we, wok := scanPairVarint(data)
		if ko != wko || ke != wke || e != we || ok != wok {
			t.Fatalf("scanPair(% x…, %d bytes) = (%d, %d, %d, %v), varint path (%d, %d, %d, %v)",
				data[:min(len(data), 4)], len(data), ko, ke, e, ok, wko, wke, we, wok)
		}
	}
	body := bytes.Repeat([]byte{0xAB}, 700)
	for klen := 0; klen <= 300; klen++ {
		for vlen := 0; vlen <= 300; vlen++ {
			pair := AppendPair(nil, body[:klen], body[:vlen])
			if _, _, end, ok := scanPair(pair); !ok || end != len(pair) {
				t.Fatalf("scanPair rejects or mismeasures a (%d, %d) pair", klen, vlen)
			}
			check(pair)
			check(pair[:len(pair)-1])                   // one byte short
			check(pair[:len(pair)-min(2, len(pair)-1)]) // header only, or less
			check(append(pair, 0x7F, 0xFF))             // more stream behind it
		}
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			for _, n := range []int{0, 1, 126, 127, 128, 254, 255} {
				check(append([]byte{byte(a), byte(b)}, body[:n]...))
			}
		}
		check([]byte{byte(a)})
	}
	check(nil)
}
