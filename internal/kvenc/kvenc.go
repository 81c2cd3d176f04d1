// Package kvenc defines the encoded key/value stream format shared by
// map output, spill files, and sorted runs, plus the sorting, k-way
// merging, and group-iteration primitives the sort-merge data path is
// built from.
//
// A stream is a concatenation of pairs, each encoded as
//
//	[keyLen uvarint][valLen uvarint][key][value]
//
// (the same layout as bytestore.KVBuffer, so buffers flush directly
// into files). A "run" is a stream whose pairs are sorted by key
// (bytes.Compare). Merging is stable across runs: ties preserve run
// order, which keeps value arrival order deterministic end to end.
package kvenc

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// ErrCorrupt is reported by Iterator.Err when a stream's framing is
// invalid (truncated pair, malformed, padded or oversized length varint).
var ErrCorrupt = errors.New("kvenc: corrupt stream")

// scanPair validates and measures the first pair of data, returning
// the key's byte range and the pair's total encoded length. ok is
// false when the framing is invalid; no slice access is performed
// beyond len(data), so corrupt input can never panic.
func scanPair(data []byte) (keyOff, keyEnd, end int, ok bool) {
	// Two lengths below 128 take one byte each: the common case needs
	// no varint decoding, and two bounded bytes cannot overflow.
	if len(data) >= 2 && data[0]|data[1] < 0x80 {
		keyOff, keyEnd = 2, 2+int(data[0])
		end = keyEnd + int(data[1])
	} else {
		klen, kn := binary.Uvarint(data)
		if kn <= 0 {
			return 0, 0, 0, false
		}
		vlen, vn := binary.Uvarint(data[kn:])
		// A length padded with a zero top group is not what AppendPair
		// writes: rejecting it leaves every pair exactly one encoding,
		// so a kernel may copy a pair's bytes instead of encoding it
		// again.
		if vn <= 0 || (kn > 1 && data[kn-1] == 0) || (vn > 1 && data[kn+vn-1] == 0) {
			return 0, 0, 0, false
		}
		// Bounding each length by len(data) both rejects truncated pairs
		// early and guarantees the int conversions below cannot overflow.
		if klen > uint64(len(data)) || vlen > uint64(len(data)) {
			return 0, 0, 0, false
		}
		keyOff = kn + vn
		keyEnd = keyOff + int(klen)
		end = keyEnd + int(vlen)
	}
	if end > len(data) {
		return 0, 0, 0, false
	}
	return keyOff, keyEnd, end, true
}

// Iterator decodes a stream pair by pair. The zero value is empty.
type Iterator struct {
	data []byte
	err  error
}

// NewIterator returns an iterator over an encoded stream.
func NewIterator(data []byte) *Iterator { return &Iterator{data: data} }

// Next advances to the next pair, returning false at end of stream or
// on corrupt framing (check Err to distinguish). The returned slices
// alias the underlying stream.
func (it *Iterator) Next() (key, val []byte, ok bool) {
	keyOff, keyEnd, end, ok := scanPair(it.data)
	if !ok {
		if len(it.data) > 0 {
			it.err, it.data = ErrCorrupt, nil
		}
		return nil, nil, false
	}
	key, val = it.data[keyOff:keyEnd:keyEnd], it.data[keyEnd:end:end]
	it.data = it.data[end:]
	return key, val, true
}

// Err returns ErrCorrupt if the iterator stopped on invalid framing
// rather than a clean end of stream.
func (it *Iterator) Err() error { return it.err }

// AppendPair appends one encoded pair to dst and returns the extended
// slice.
func AppendPair(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// Count returns the number of pairs in a stream.
func Count(data []byte) int {
	n := 0
	it := NewIterator(data)
	for {
		if _, _, ok := it.Next(); !ok {
			return n
		}
		n++
	}
}

// IsSorted reports whether a stream's keys are non-decreasing.
func IsSorted(data []byte) bool {
	var prev []byte // keys alias data; nothing sorts before the empty key
	for it := NewIterator(data); ; {
		k, _, ok := it.Next()
		if !ok || bytes.Compare(prev, k) > 0 {
			return !ok
		}
		prev = k
	}
}

// MergeStreamTo fully merges runs, appending the merged run to dst
// (which may be a recycled buffer from bytestore.Get), and reports
// ErrCorrupt if any run was truncated by invalid framing (the merged
// prefix is still returned).
func MergeStreamTo(dst []byte, runs [][]byte) ([]byte, error) { return NewMerger(runs).AppendTo(dst) }

// AppendTo drains the merge into dst.
func (m *Merger) AppendTo(dst []byte) ([]byte, error) {
	for {
		pair, _, _, ok := m.next()
		if !ok {
			return dst, m.Err()
		}
		dst = append(dst, pair...) // a pair has one encoding (scanPair)
	}
}

// ValueIter streams the values of one group to a reduce function.
type ValueIter interface {
	// Next returns the next value of the current group, valid until
	// the next call.
	Next() ([]byte, bool)
}

// SliceIter is a ValueIter over values held in memory.
type SliceIter struct {
	Vals [][]byte
	i    int
}

// Next implements ValueIter.
func (s *SliceIter) Next() ([]byte, bool) {
	if s.i >= len(s.Vals) {
		return nil, false
	}
	s.i++
	return s.Vals[s.i-1], true
}

// Groups is the final merge + group-by that feeds a reduce function,
// stepped one key group at a time: NextGroup moves to the next distinct
// key, and the Groups itself then streams that key's values (in stable
// run order). A caller may stop after any group and resume later.
type Groups struct {
	N int64 // values pulled from the current group so far

	m    *Merger
	key  []byte // the current group's key, a copy (windows turn over within a group)
	k, v []byte // the one pair read ahead of the consumer
	ok   bool   // a pair is read ahead (false: the runs are drained)
	same bool   // … and it belongs to the current group
}

// NewGroups starts a grouped merge.
func NewGroups(m *Merger) *Groups {
	g := &Groups{m: m}
	g.k, g.v, g.ok = g.m.Next()
	return g
}

// NextGroup skips what the consumer left of the current group and
// steps to the next, returning its key, valid until the next call. ok
// is false once the runs are drained; check Err then.
func (g *Groups) NextGroup() (key []byte, ok bool) {
	for g.same {
		g.Next()
	}
	if !g.ok {
		return nil, false
	}
	g.key, g.same, g.N = append(g.key[:0], g.k...), true, 0
	return g.key, true
}

// Next implements ValueIter over the current group.
func (g *Groups) Next() ([]byte, bool) {
	if !g.same {
		return nil, false
	}
	v := g.v
	g.N++
	g.k, g.v, g.ok = g.m.Next()
	g.same = g.ok && bytes.Equal(g.k, g.key)
	return v, true
}

// Err returns ErrCorrupt if any run was truncated by invalid framing
// (the groups decoded before the damage were still delivered).
func (g *Groups) Err() error { return g.m.Err() }
