package kvenc

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"sort"
)

// scanPairVarint is scanPair without its branch for two one-byte
// lengths: every length goes through the varint decoder.
func scanPairVarint(data []byte) (keyOff, keyEnd, end int, ok bool) {
	klen, kn := binary.Uvarint(data)
	if kn <= 0 {
		return 0, 0, 0, false
	}
	vlen, vn := binary.Uvarint(data[kn:])
	if vn <= 0 || (kn > 1 && data[kn-1] == 0) || (vn > 1 && data[kn+vn-1] == 0) {
		return 0, 0, 0, false
	}
	if klen > uint64(len(data)) || vlen > uint64(len(data)) {
		return 0, 0, 0, false
	}
	keyOff = kn + vn
	keyEnd = keyOff + int(klen)
	end = keyEnd + int(vlen)
	if end > len(data) {
		return 0, 0, 0, false
	}
	return keyOff, keyEnd, end, true
}

// heapMerger is the original container/heap k-way merger, kept as the
// reference implementation the loser-tree Merger is differentially
// tested against (differential_test.go holds the two to identical output and
// identical tie order on every input shape). Same contract as Merger:
// a corrupt run stops contributing at its first invalid pair, the
// merge continues over the remaining runs, and Err reports the damage.
type heapMerger struct {
	h   mergeHeap
	err error
}

// mergeHeap orders run iterators by (current key, run index).
type mergeHeap struct {
	its  []*Iterator
	keys [][]byte
	vals [][]byte
	idx  []int
}

func (h *mergeHeap) Len() int { return len(h.its) }
func (h *mergeHeap) Less(i, j int) bool {
	c := bytes.Compare(h.keys[i], h.keys[j])
	if c != 0 {
		return c < 0
	}
	return h.idx[i] < h.idx[j]
}
func (h *mergeHeap) Swap(i, j int) {
	h.its[i], h.its[j] = h.its[j], h.its[i]
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.vals[i], h.vals[j] = h.vals[j], h.vals[i]
	h.idx[i], h.idx[j] = h.idx[j], h.idx[i]
}
func (h *mergeHeap) Push(x interface{}) { panic("unused") }
func (h *mergeHeap) Pop() interface{}   { panic("unused") }

// newHeapMerger creates a k-way heap merger over the given runs.
func newHeapMerger(runs [][]byte) *heapMerger {
	m := &heapMerger{}
	for i, r := range runs {
		it := NewIterator(r)
		if k, v, ok := it.Next(); ok {
			m.h.its = append(m.h.its, it)
			m.h.keys = append(m.h.keys, k)
			m.h.vals = append(m.h.vals, v)
			m.h.idx = append(m.h.idx, i)
		} else if it.Err() != nil && m.err == nil {
			m.err = it.Err()
		}
	}
	heap.Init(&m.h)
	return m
}

// Err returns ErrCorrupt if any input run stopped on invalid framing
// rather than a clean end of run.
func (m *heapMerger) Err() error { return m.err }

// Next returns the next pair in merged key order.
func (m *heapMerger) Next() (key, val []byte, ok bool) {
	if m.h.Len() == 0 {
		return nil, nil, false
	}
	key, val = m.h.keys[0], m.h.vals[0]
	if k, v, more := m.h.its[0].Next(); more {
		m.h.keys[0], m.h.vals[0] = k, v
		heap.Fix(&m.h, 0)
	} else {
		if err := m.h.its[0].Err(); err != nil && m.err == nil {
			m.err = err
		}
		n := m.h.Len() - 1
		m.h.Swap(0, n)
		m.h.its = m.h.its[:n]
		m.h.keys = m.h.keys[:n]
		m.h.vals = m.h.vals[:n]
		m.h.idx = m.h.idx[:n]
		if n > 0 {
			heap.Fix(&m.h, 0)
		}
	}
	return key, val, true
}

// sortStreamStable is the original comparison-based implementation
// (sort.SliceStable over the span array), kept as the reference the
// radix kernel is differentially tested against.
func sortStreamStable(data []byte) ([]byte, int) {
	var spans []span
	spans = scanSpans(data, spans)
	sort.SliceStable(spans, func(i, j int) bool {
		return bytes.Compare(data[spans[i].keyOff:spans[i].keyEnd], data[spans[j].keyOff:spans[j].keyEnd]) < 0
	})
	out := make([]byte, 0, len(data))
	for _, s := range spans {
		out = append(out, data[s.off:s.end]...)
	}
	return out, len(spans)
}

// MergeGroups merges runs and calls fn once per distinct key with a
// streaming iterator over that key's values (in stable run order) —
// the callback form of Groups the tests were written against. If fn
// returns false, iteration stops.
func MergeGroups(runs [][]byte, fn func(key []byte, vals ValueIter) bool) {
	g := NewGroups(runs)
	for key, ok := g.NextGroup(); ok && fn(key, g); key, ok = g.NextGroup() {
	}
}

// SliceValues materializes an iterator.
func SliceValues(vals ValueIter) [][]byte {
	var out [][]byte
	for {
		v, ok := vals.Next()
		if !ok {
			return out
		}
		out = append(out, append([]byte(nil), v...))
	}
}

// MergeStream fully merges runs into a single encoded run, silently
// tolerating corrupt tails.
func MergeStream(runs [][]byte) []byte {
	out, _ := MergeStreamChecked(runs)
	return out
}
