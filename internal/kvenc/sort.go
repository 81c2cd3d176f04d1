package kvenc

import (
	"bytes"
	"sync"
)

// The map-side sort is the single largest CPU consumer of the
// sort-merge data path (PAPER.md §3: the CPU bottleneck the hash
// framework exists to remove), so it gets a specialized kernel: a
// stable MSD radix sort over the key bytes. Pairs are described by a
// span array (byte ranges into the stream); the counting passes
// scatter spans stably, so the result is bytewise identical to the
// stable comparison sort it replaced — sortStreamStable stays in
// reference_test.go as the reference implementation, and the
// differential tests hold the two to the same output on every input
// shape.

// span locates one pair inside a stream: the key's byte range and the
// whole pair's byte range. Offsets are ints so streams larger than
// 2 GiB need no special casing.
type span struct {
	keyOff, keyEnd int // key bytes
	off, end       int // whole pair
}

// radixInsertionCutoff is the partition size below which a binary
// insertion-style stable sort beats another counting pass.
const radixInsertionCutoff = 24

// radixFrame is one pending partition of the explicit MSD recursion
// stack: spans[lo:hi] share their first depth key bytes.
type radixFrame struct {
	lo, hi, depth int
}

// radixState bundles the scratch arrays one sort needs, recycled
// through a sync.Pool so the steady-state sort path performs no
// allocations beyond the output stream.
type radixState struct {
	spans   []span
	scratch []span
	stack   []radixFrame
}

var radixPool = sync.Pool{New: func() any { return new(radixState) }}

// scanSpans builds the span array for a stream, dropping a corrupt
// tail (same contract as the reference sort: never panic on bad
// framing).
func scanSpans(data []byte, spans []span) []span {
	for p := 0; p < len(data); {
		keyOff, keyEnd, end, ok := scanPair(data[p:])
		if !ok {
			break
		}
		spans = append(spans, span{keyOff: p + keyOff, keyEnd: p + keyEnd, off: p, end: p + end})
		p += end
	}
	return spans
}

// SortStream sorts a stream's pairs by key (stable) and returns a new
// encoded stream along with the pair count. It is the map-side sort of
// the sort-merge implementation.
func SortStream(data []byte) ([]byte, int) {
	return SortStreamTo(nil, data)
}

// SortStreamTo is SortStream appending the sorted stream to dst
// (which may be a recycled buffer from bytestore.Get); callers that
// pass a buffer with enough capacity get an allocation-free sort.
func SortStreamTo(dst, data []byte) ([]byte, int) {
	st := radixPool.Get().(*radixState)
	st.spans = scanSpans(data, st.spans[:0])
	radixSortSpans(data, st)
	for _, s := range st.spans {
		dst = append(dst, data[s.off:s.end]...)
	}
	n := len(st.spans)
	radixPool.Put(st)
	return dst, n
}

// radixSortSpans stably sorts st.spans by key bytes using MSD
// counting passes with an insertion-sort fallback for small
// partitions. Both phases are stable, so equal keys keep stream
// order — the property the bytewise-identity contract rests on.
func radixSortSpans(data []byte, st *radixState) {
	if len(st.spans) < 2 {
		return
	}
	if cap(st.scratch) < len(st.spans) {
		st.scratch = make([]span, len(st.spans))
	}
	scratch := st.scratch[:len(st.spans)]
	st.stack = append(st.stack[:0], radixFrame{0, len(st.spans), 0})
	for len(st.stack) > 0 {
		f := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		if f.hi-f.lo <= radixInsertionCutoff {
			insertionSortSpans(data, st.spans[f.lo:f.hi], f.depth)
			continue
		}
		// Counting pass over the byte at f.depth. Bucket 0 holds keys
		// exhausted at this depth: they share every byte with each
		// other (the partition shares the first depth bytes and they
		// have no more), so they are mutually equal and finished.
		var count [257]int
		for _, s := range st.spans[f.lo:f.hi] {
			count[radixByte(data, s, f.depth)]++
		}
		// Bucket start offsets within [lo, hi).
		var starts [257]int
		pos := f.lo
		for b := 0; b < 257; b++ {
			starts[b] = pos
			pos += count[b]
		}
		// Stable scatter through the scratch array.
		next := starts
		for _, s := range st.spans[f.lo:f.hi] {
			b := radixByte(data, s, f.depth)
			scratch[next[b]] = s
			next[b]++
		}
		copy(st.spans[f.lo:f.hi], scratch[f.lo:f.hi])
		// Recurse into buckets that can still differ (≥2 spans with
		// key bytes remaining).
		for b := 1; b < 257; b++ {
			if count[b] > 1 {
				st.stack = append(st.stack, radixFrame{starts[b], starts[b] + count[b], f.depth + 1})
			}
		}
	}
}

// radixByte returns the sort bucket of a span at the given key depth:
// 0 for an exhausted key (a prefix sorts before any extension, which
// is bytes.Compare order), else the byte value + 1.
func radixByte(data []byte, s span, depth int) int {
	if d := s.keyOff + depth; d < s.keyEnd {
		return int(data[d]) + 1
	}
	return 0
}

// insertionSortSpans stably sorts a small partition whose keys share
// the first depth bytes, comparing only the key suffixes.
func insertionSortSpans(data []byte, spans []span, depth int) {
	for i := 1; i < len(spans); i++ {
		s := spans[i]
		sk := keySuffix(data, s, depth)
		j := i
		for j > 0 && bytes.Compare(keySuffix(data, spans[j-1], depth), sk) > 0 {
			spans[j] = spans[j-1]
			j--
		}
		spans[j] = s
	}
}

// keySuffix returns a span's key bytes from depth on (empty when the
// key is shorter than depth).
func keySuffix(data []byte, s span, depth int) []byte {
	d := s.keyOff + depth
	if d > s.keyEnd {
		d = s.keyEnd
	}
	return data[d:s.keyEnd]
}
