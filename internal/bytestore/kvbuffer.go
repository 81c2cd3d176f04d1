package bytestore

import "encoding/binary"

// KVBuffer is a flat append-only buffer of key/value (or key/state)
// pairs with a byte budget. It backs the map-side output buffer and
// the per-bucket write buffers of the reducers: when Append reports
// the buffer full, the owner flushes it to disk, which is exactly the
// paper's write-buffer semantics ("other buckets are streamed out to
// disks as their write buffers fill up", §4.1).
//
// Pair layout: [kLen uvarint][vLen uvarint][key][value].
type KVBuffer struct {
	buf    []byte
	n      int
	budget int64
}

// NewKVBuffer creates a buffer with the given byte budget.
func NewKVBuffer(budget int64) *KVBuffer {
	return &KVBuffer{budget: budget}
}

// PairBytes returns the encoded size of a (key, value) pair.
func PairBytes(keyLen, valLen int) int64 {
	return int64(uvarintLen(uint64(keyLen)) + uvarintLen(uint64(valLen)) + keyLen + valLen)
}

// Append adds a pair. It returns false (without adding) if the pair
// would exceed the budget; an empty buffer always accepts one pair so
// oversized singletons cannot wedge the pipeline.
func (b *KVBuffer) Append(key, val []byte) bool {
	need := PairBytes(len(key), len(val))
	if int64(len(b.buf))+need > b.budget && b.n > 0 {
		return false
	}
	b.buf = AppendPair(b.buf, key, val)
	b.n++
	return true
}

// Len returns the number of pairs.
func (b *KVBuffer) Len() int { return b.n }

// SizeBytes returns the bytes currently buffered.
func (b *KVBuffer) SizeBytes() int64 { return int64(len(b.buf)) }

// Reset empties the buffer, retaining capacity.
func (b *KVBuffer) Reset() {
	b.buf = b.buf[:0]
	b.n = 0
}

// Bytes returns the raw encoded contents (valid until Reset/Append).
func (b *KVBuffer) Bytes() []byte { return b.buf }

// AppendPair appends one pair to a raw KVBuffer-encoded stream (no
// budget), returning the extended slice. Used to serialize tables and
// checkpoints in the same format RangePairs reads back.
func AppendPair(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// RangePairs decodes a KVBuffer-encoded byte stream (e.g. one read
// back from a spill file) and iterates its pairs.
func RangePairs(data []byte, fn func(key, val []byte) bool) {
	for len(data) > 0 {
		klen, kn := binary.Uvarint(data)
		vlen, vn := binary.Uvarint(data[kn:])
		p := kn + vn
		key := data[p : p+int(klen) : p+int(klen)]
		p += int(klen)
		val := data[p : p+int(vlen) : p+int(vlen)]
		p += int(vlen)
		if !fn(key, val) {
			return
		}
		data = data[p:]
	}
}
