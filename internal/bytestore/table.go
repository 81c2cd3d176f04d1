package bytestore

import (
	"encoding/binary"

	"repro/internal/hashfam"
)

// Table is a byte-arena hash table from keys to either a mutable
// fixed-capacity state (INC-hash) or a list of values (MR-hash's
// in-memory bucket). It uses linear probing over an int32 bucket
// array; keys, states and value nodes live in a single arena. The
// table enforces a byte budget: inserts that would exceed it are
// refused so the caller can take the spill path, exactly like the
// reducer memory checks in §4.2. An empty table always admits one
// entry, like KVBuffer, so an oversized singleton cannot wedge the
// pipeline.
//
// Entry layout in the arena:
//
//	[keyLen uvarint][key bytes][stateOff int32][stateLen int32][stateCap int32][valHead int32]
//
// State slot layout: raw bytes of capacity stateCap.
// Value node layout: [next int32][valLen uvarint][val bytes].
type Table struct {
	h       hashfam.Func
	buckets []int32 // entry offset + 1; 0 = empty
	entries []int32 // insertion order, for deterministic iteration
	a       arena
	budget  int64
	mask    int
}

const entryFixed = 16 // stateOff + stateLen + stateCap + valHead

// NewTable creates a table with the given hash function and byte
// budget. The budget covers the arena and the bucket array.
func NewTable(h hashfam.Func, budget int64) *Table {
	nb := 64
	// Size buckets optimistically for ~64-byte entries at load 0.5;
	// the table rehashes if the estimate is off.
	for int64(nb)*128 < budget && nb < 1<<28 {
		nb *= 2
	}
	return &Table{
		h:       h,
		buckets: make([]int32, nb),
		a:       newArena(1024),
		budget:  budget,
		mask:    nb - 1,
	}
}

// Release hands the arena back to the pool at the end of the table's
// life: the table and every key, state and value view it handed out
// are dead from here on.
func (t *Table) Release() {
	Put(t.a.buf)
	t.a.buf = nil
}

// SizeBytes returns the accounted memory use: arena plus bucket array.
func (t *Table) SizeBytes() int64 { return t.a.size() + int64(len(t.buckets))*4 }

// entryKey returns the key bytes of the entry at off, and the offset
// of its fixed fields.
func (t *Table) entryKey(off int32) (key []byte, fixedOff int32) {
	klen, n := binary.Uvarint(t.a.buf[off:])
	keyStart := int(off) + n
	return t.a.buf[keyStart : keyStart+int(klen) : keyStart+int(klen)], int32(keyStart + int(klen))
}

func (t *Table) field(fixedOff int32, i int) int32 {
	return int32(binary.LittleEndian.Uint32(t.a.buf[fixedOff+int32(i*4):]))
}

func (t *Table) setField(fixedOff int32, i int, v int32) {
	binary.LittleEndian.PutUint32(t.a.buf[fixedOff+int32(i*4):], uint32(v))
}

// find locates key's entry, returning its fixed-field offset and true,
// or the bucket index where it would be inserted and false.
func (t *Table) find(key []byte) (int32, int, bool) {
	i := int(t.h.Sum64(key)) & t.mask
	for {
		ref := t.buckets[i]
		if ref == 0 {
			return 0, i, false
		}
		k, fixedOff := t.entryKey(ref - 1)
		if string(k) == string(key) {
			return fixedOff, i, true
		}
		i = (i + 1) & t.mask
	}
}

// wouldFit reports whether inserting an entry of the given extra size
// keeps the table within budget (including a possible rehash).
func (t *Table) wouldFit(extra int64) bool {
	if len(t.entries) == 0 {
		return true
	}
	grow := int64(0)
	if (len(t.entries)+1)*4 >= len(t.buckets)*3 {
		grow = int64(len(t.buckets)) * 4 // doubling adds this many bytes
	}
	return t.SizeBytes()+extra+grow <= t.budget
}

// insert creates a new entry for key and returns its fixed-field
// offset. The caller must have checked the budget.
func (t *Table) insert(key []byte, bucket int) int32 {
	if (len(t.entries)+1)*4 >= len(t.buckets)*3 {
		t.rehash()
		_, bucket, _ = t.find(key)
	}
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	off := t.a.alloc(n + len(key) + entryFixed)
	copy(t.a.buf[off:], tmp[:n])
	copy(t.a.buf[int(off)+n:], key)
	fixedOff := off + int32(n+len(key))
	t.buckets[bucket] = off + 1
	t.entries = append(t.entries, off)
	return fixedOff
}

// rehash doubles the bucket array.
func (t *Table) rehash() {
	nb := len(t.buckets) * 2
	t.buckets = make([]int32, nb)
	t.mask = nb - 1
	for _, off := range t.entries {
		key, _ := t.entryKey(off)
		i := int(t.h.Sum64(key)) & t.mask
		for t.buckets[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.buckets[i] = off + 1
	}
}

// Slot is a handle on one entry of a table: its fixed fields' offset
// in the arena, valid until the table is released.
type Slot int32

// UpsertState looks up key. If present it returns the current state,
// the entry's slot and found=true. If absent it inserts the key with a
// zeroed state slot of capacity stateCap, initial length stateLen, and
// returns the (writable) state, its slot and found=false. The slot lets
// a SetState that follows skip hashing and probing the key again.
// ok=false means the insert would exceed the budget and nothing was
// changed: the caller must spill.
func (t *Table) UpsertState(key []byte, stateLen, stateCap int) (state []byte, slot Slot, found, ok bool) {
	fixedOff, bucket, exists := t.find(key)
	if exists {
		return t.stateOf(fixedOff), Slot(fixedOff), true, true
	}
	if stateLen > stateCap {
		stateCap = stateLen
	}
	extra := int64(uvarintLen(uint64(len(key))) + len(key) + entryFixed + stateCap)
	if !t.wouldFit(extra) {
		return nil, 0, false, false
	}
	fixedOff = t.insert(key, bucket)
	at := t.a.alloc(stateCap)
	t.setField(fixedOff, 0, at)
	t.setField(fixedOff, 1, int32(stateLen))
	t.setField(fixedOff, 2, int32(stateCap))
	return t.a.bytes(at, stateLen), Slot(fixedOff), false, true
}

func (t *Table) stateOf(fixedOff int32) []byte {
	slot := t.field(fixedOff, 0)
	n := t.field(fixedOff, 1)
	return t.a.bytes(slot, int(n))
}

// SetState replaces the state of the entry UpsertState returned slot
// for, without looking its key up again. If the new state fits the slot
// capacity it is updated in place; otherwise a new slot is allocated
// (the old space is wasted, and counted, exactly as a real arena
// allocator would). ok=false means the reallocation would exceed the
// budget and the state is unchanged.
func (t *Table) SetState(slot Slot, state []byte) (ok bool) {
	fixedOff := int32(slot)
	capa := int(t.field(fixedOff, 2))
	if len(state) <= capa {
		at := t.field(fixedOff, 0)
		copy(t.a.buf[at:], state)
		t.setField(fixedOff, 1, int32(len(state)))
		return true
	}
	if !t.wouldFit(int64(len(state))) {
		return false
	}
	at := t.a.alloc(len(state))
	copy(t.a.buf[at:], state)
	t.setField(fixedOff, 0, at)
	t.setField(fixedOff, 1, int32(len(state)))
	t.setField(fixedOff, 2, int32(len(state)))
	return true
}

// AppendValue appends a value to key's value list, inserting the key
// if absent. ok=false means it would exceed the budget and nothing was
// changed.
func (t *Table) AppendValue(key, val []byte) (ok bool) {
	fixedOff, bucket, exists := t.find(key)
	nodeSize := int64(4 + uvarintLen(uint64(len(val))) + len(val))
	if !exists {
		extra := int64(uvarintLen(uint64(len(key)))+len(key)+entryFixed) + nodeSize
		if !t.wouldFit(extra) {
			return false
		}
		fixedOff = t.insert(key, bucket)
	} else if !t.wouldFit(nodeSize) {
		return false
	}
	// Prepend to the list; Values replays in insertion order by
	// walking the chain and reversing, but we instead keep append
	// order by storing the tail pointer in valHead's node chain:
	// simplest correct scheme is prepend + reverse at read time.
	head := t.field(fixedOff, 3)
	node := t.a.alloc(4 + uvarintLen(uint64(len(val))) + len(val))
	binary.LittleEndian.PutUint32(t.a.buf[node:], uint32(head))
	n := binary.PutUvarint(t.a.buf[node+4:], uint64(len(val)))
	copy(t.a.buf[int(node)+4+n:], val)
	t.setField(fixedOff, 3, node+1) // +1 so 0 stays nil
	return true
}

func (t *Table) valuesAt(fixedOff int32, fn func(val []byte)) {
	// Collect node offsets (chain is in reverse insertion order).
	var nodes []int32
	for ref := t.field(fixedOff, 3); ref != 0; {
		node := ref - 1
		nodes = append(nodes, node)
		ref = int32(binary.LittleEndian.Uint32(t.a.buf[node:]))
	}
	for i := len(nodes) - 1; i >= 0; i-- {
		node := nodes[i]
		vlen, n := binary.Uvarint(t.a.buf[node+4:])
		start := int(node) + 4 + n
		fn(t.a.buf[start : start+int(vlen) : start+int(vlen)])
	}
}

// Range iterates over all keys in insertion order. For state entries,
// state is non-nil; for value-list entries, values(fn) replays the
// list. Stop by returning false.
func (t *Table) Range(fn func(key, state []byte, values func(func(val []byte))) bool) {
	for _, off := range t.entries {
		key, fixedOff := t.entryKey(off)
		var state []byte
		if slot := t.field(fixedOff, 0); slot != 0 {
			state = t.stateOf(fixedOff)
		}
		values := func(vf func(val []byte)) { t.valuesAt(fixedOff, vf) }
		if !fn(key, state, values) {
			return
		}
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
