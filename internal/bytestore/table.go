package bytestore

import (
	"cmp"
	"encoding/binary"
	"slices"

	"repro/internal/hashfam"
	"repro/internal/kvenc"
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
// Delete removes a key without tombstones: the entries probing past its
// bucket shift back (Knuth's Algorithm R), and its arena bytes become
// dead until the table compacts.
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
	entries []int32 // insertion (so arena) order, for deterministic iteration; deleted: negated
	live    int     // keys in the table
	dead    int64   // arena bytes no key reaches: deleted entries, outgrown states
	a       arena
	budget  int64
	mask    int
	ranging bool                // inside Range: compaction waits for it to return
	moved   func(from, to Slot) // see OnMove
}

const entryFixed = 16 // stateOff + stateLen + stateCap + valHead

// bucketShare is a key's share of the bucket array: at most
// max(64, 8n/3) four-byte buckets hold n keys.
const bucketShare = 11

// EntryBytes is what a new key with a state slot adds to SizeBytes, with
// its bucketShare, though a rehash adds a doubling of the array at once.
func EntryBytes(keyLen, stateCap int) int64 {
	return int64(uvarintLen(uint64(keyLen))+keyLen+entryFixed+stateCap) + bucketShare
}

// NewTable creates a table with the given hash function and byte
// budget. The budget covers the arena and the bucket array; 0 is none.
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
	if t.live == 0 || t.budget == 0 {
		return true
	}
	grow := int64(0)
	if (t.live+1)*4 >= len(t.buckets)*3 {
		grow = int64(len(t.buckets)) * 4 // doubling adds this many bytes
	}
	return t.SizeBytes()+extra+grow <= t.budget
}

// insert creates a new entry for key and returns its fixed-field
// offset. The caller must have checked the budget.
func (t *Table) insert(key []byte, bucket int) int32 {
	if (t.live+1)*4 >= len(t.buckets)*3 {
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
	t.live++
	return fixedOff
}

// rehash doubles the bucket array.
func (t *Table) rehash() {
	nb := len(t.buckets) * 2
	t.buckets = make([]int32, nb)
	t.mask = nb - 1
	for _, off := range t.entries {
		if off < 0 {
			continue
		}
		key, _ := t.entryKey(off)
		i := int(t.h.Sum64(key)) & t.mask
		for t.buckets[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.buckets[i] = off + 1
	}
}

// Slot is a handle on one entry of a table: its fixed fields' offset
// in the arena, valid until the table compacts (see OnMove) or is
// released.
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
	if !t.wouldFit(EntryBytes(len(key), stateCap) - bucketShare) {
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

// Find returns the slot of key's entry and whether the key is present.
func (t *Table) Find(key []byte) (Slot, bool) {
	fixedOff, _, ok := t.find(key)
	return Slot(fixedOff), ok
}

// State returns the state of the state entry at slot.
func (t *Table) State(slot Slot) []byte { return t.stateOf(int32(slot)) }

// SetState replaces the state of the entry UpsertState returned slot
// for, without looking its key up again. If the new state fits the slot
// capacity it is updated in place; otherwise a new slot is allocated
// (the old space is dead, and counted, exactly as a real arena
// allocator would). ok=false means the reallocation would exceed the
// budget and the state is unchanged.
func (t *Table) SetState(slot Slot, state []byte) (ok bool) { return t.setState(slot, 0, state, 1) }

// SetStateAt is SetState for the state's bytes from at on, keeping the
// first at bytes, for an owner that heads its states with fields of its
// own. A state that outgrows its slot moves to one of at least twice
// the capacity, so one that grows a little at a time rarely moves.
func (t *Table) SetStateAt(slot Slot, at int, state []byte) (ok bool) {
	return t.setState(slot, at, state, 2)
}

// setState moves a state that outgrows its slot to one of
// max(its length, growth × the capacity) bytes.
func (t *Table) setState(slot Slot, at int, state []byte, growth int) (ok bool) {
	fixedOff := int32(slot)
	n := at + len(state)
	from := t.field(fixedOff, 0)
	if capa := int(t.field(fixedOff, 2)); n > capa {
		grown := max(n, growth*capa)
		if !t.wouldFit(int64(grown)) {
			return false
		}
		to := t.a.alloc(grown)
		copy(t.a.buf[to:], t.a.buf[from:int(from)+at])
		t.setField(fixedOff, 0, to)
		t.setField(fixedOff, 2, int32(grown))
		t.dead += int64(capa)
		from = to
	}
	copy(t.a.buf[int(from)+at:], state)
	t.setField(fixedOff, 1, int32(n))
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
	// Prepend to the chain; Values replays it reversed.
	head := t.field(fixedOff, 3)
	node := t.a.alloc(4 + uvarintLen(uint64(len(val))) + len(val))
	binary.LittleEndian.PutUint32(t.a.buf[node:], uint32(head))
	n := binary.PutUvarint(t.a.buf[node+4:], uint64(len(val)))
	copy(t.a.buf[int(node)+4+n:], val)
	t.setField(fixedOff, 3, node+1) // +1 so 0 stays nil
	return true
}

// Values calls fn with each value of the value-list entry at slot, in
// insertion order.
func (t *Table) Values(slot Slot, fn func(val []byte)) {
	// Collect node offsets (chain is in reverse insertion order).
	var nodes []int32
	for ref := t.field(int32(slot), 3); ref != 0; {
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

// Len returns the number of keys.
func (t *Table) Len() int { return t.live }

// OnMove sets the function compaction calls with each remaining entry's
// old and new slot.
func (t *Table) OnMove(fn func(from, to Slot)) { t.moved = fn }

// Delete removes the entry at slot and returns views of its key and its
// state (empty for a value-list entry), valid as long as every view the
// table lent. Its arena bytes become dead; once dead bytes pass live
// ones the table compacts, renumbering every slot (see OnMove).
func (t *Table) Delete(slot Slot) (key, state []byte) {
	fixedOff := int32(slot)
	// The entry holding fixedOff precedes the first that starts past it.
	i, _ := slices.BinarySearchFunc(t.entries, fixedOff, func(off, at int32) int { return cmp.Compare(max(off, -off), at) })
	off := t.entries[i-1]
	key, _ = t.entryKey(off)
	state = t.stateOf(fixedOff)
	_, b, _ := t.find(key)
	// Knuth's Algorithm R: an entry further along the probe run moves
	// back into the hole unless its home lies cyclically in (b, j].
	for j := (b + 1) & t.mask; t.buckets[j] != 0; j = (j + 1) & t.mask {
		k, _ := t.entryKey(t.buckets[j] - 1)
		if h := int(t.h.Sum64(k)) & t.mask; b < j && (h <= b || h > j) || j < b && h <= b && h > j {
			t.buckets[b], b = t.buckets[j], j
		}
	}
	t.buckets[b] = 0
	t.entries[i-1], t.live = -off, t.live-1
	t.dead += int64(fixedOff-off+entryFixed) + int64(t.field(fixedOff, 2))
	for ref := t.field(fixedOff, 3); ref != 0; ref = int32(binary.LittleEndian.Uint32(t.a.buf[ref-1:])) {
		vlen, n := binary.Uvarint(t.a.buf[ref+3:])
		t.dead += int64(4 + n + int(vlen))
	}
	if !t.ranging {
		t.compactIfDue()
	}
	return key, state
}

// compactIfDue copies the live entries, in order, into a fresh pooled
// arena with room for as many again, and sizes the bucket array to
// them, once dead bytes pass live ones. The old arena goes to the GC,
// not the pool: views the table lent may alias it.
func (t *Table) compactIfDue() {
	if t.dead <= t.a.size()-t.dead {
		return
	}
	old := *t
	t.a, t.dead, t.live, t.entries = newArena(int(2*(old.a.size()-old.dead))), 0, 0, old.entries[:0]
	nb := 64
	for (old.live+1)*4 >= nb*3 {
		nb *= 2
	}
	if nb == len(t.buckets) {
		clear(t.buckets)
	} else {
		t.buckets, t.mask = make([]int32, nb), nb-1
	}
	for _, off := range old.entries {
		if off < 0 {
			continue
		}
		key, from := old.entryKey(off)
		_, b, _ := t.find(key)
		to := t.insert(key, b)
		if st := old.field(from, 0); st != 0 {
			at := t.a.alloc(int(old.field(from, 2)))
			copy(t.a.buf[at:], old.stateOf(from))
			t.setField(to, 0, at)
			t.setField(to, 1, old.field(from, 1))
			t.setField(to, 2, old.field(from, 2))
		}
		old.Values(Slot(from), func(v []byte) { t.AppendValue(key, v) })
		if t.moved != nil {
			t.moved(Slot(from), Slot(to))
		}
	}
}

// AppendStates appends every key and its state to dst as kvenc pairs,
// in insertion order, growing dst once, from the pool, to hold them.
func (t *Table) AppendStates(dst []byte) []byte {
	n := 0
	t.Range(func(key, state []byte, _ Slot) bool {
		n += int(PairBytes(len(key), len(state)))
		return true
	})
	dst = Grow(dst, n)
	t.Range(func(key, state []byte, _ Slot) bool {
		dst = kvenc.AppendPair(dst, key, state)
		return true
	})
	return dst
}

// Range calls fn with every key, its state (empty for a value-list
// entry, whose values Values replays) and its slot, in insertion order,
// until fn returns false. fn may Delete any entry but not insert; a
// compaction its deletes make due waits until Range returns.
func (t *Table) Range(fn func(key, state []byte, slot Slot) bool) {
	live := t.live
	t.ranging = true
	for _, off := range t.entries {
		if off < 0 {
			continue
		}
		key, fixedOff := t.entryKey(off)
		if !fn(key, t.stateOf(fixedOff), Slot(fixedOff)) {
			break
		}
	}
	t.ranging = false
	if t.live < live {
		t.compactIfDue()
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
