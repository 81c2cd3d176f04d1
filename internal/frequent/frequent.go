// Package frequent implements the FREQUENT algorithm (Misra–Gries
// [12], with the improved analysis of [3]) extended with per-key
// computation states, as used by the paper's dynamic incremental hash
// technique DINC-hash (§4.3).
//
// A Summary monitors up to s keys. Each monitored key k[i] carries a
// frequency counter c[i], the state s[i] of the partial computation,
// and a counter t[i] of how many tuples have been combined into s[i]
// since k[i] most recently became monitored (used for coverage
// estimation). On a tuple whose key is not monitored:
//
//   - if a free slot exists, the key is monitored with count 1;
//   - else if some monitored key has count 0, its (key, state) pair is
//     evicted (the caller spills it to the appropriate hash bucket) and
//     the new key takes the slot;
//   - otherwise all counters are decremented by one and the tuple
//     overflows (the caller spills it).
//
// Decrement-all is O(1) via a global debt offset; finding a zero-count
// victim is O(log s) via a min-heap of table slots ordered by (count,
// age), so ties always evict the oldest monitored key. The keys live in
// a bytestore.Table, where an eviction deletes the victim and inserts
// the new key last, so insertion order is age order.
//
// The standard Misra–Gries guarantee transfers: a key with frequency
// f_i has estimated count ĉ_i with f_i − M/(s+1) ≤ ĉ_i ≤ f_i after M
// tuples, hence at least Σ_i max(0, f_i − M/(s+1)) combine operations
// happen in memory (the paper's M′ bound), and the coverage
// underestimate γ_i = t/(t + M/(s+1)) ≤ t/f_i holds.
package frequent

import (
	"encoding/binary"

	"repro/internal/bytestore"
	"repro/internal/hashfam"
)

// Slot is a monitored key's handle, valid until the summary next
// inserts or removes a key.
type Slot = bytestore.Slot

// Each state is headed by eight-byte fields of the summary's own: the
// raw counter c (effective count = c − debt), t, the age seq and the
// key's heap index.
const (
	hdrC = 8 * iota
	hdrT
	hdrSeq
	hdrIdx
	hdr
)

// keyHash places monitored keys in the table; iteration is in
// insertion order, so it moves no decision.
var keyHash = hashfam.NewFamily(0).Fn(0)

// Summary is the FREQUENT structure with s monitoring slots.
type Summary struct {
	s            int
	debt, seq, m int64 // m: tuples offered
	t            *bytestore.Table
	heap         []Slot // min-heap on (c, seq)
}

// NewSummary creates a summary with s ≥ 1 slots.
func NewSummary(s int) *Summary {
	if s < 1 {
		panic("frequent: need at least one slot")
	}
	su := &Summary{s: s, t: bytestore.NewTable(keyHash, 0), heap: make([]Slot, 0, s)}
	su.t.OnMove(func(_, to Slot) { su.heap[su.get(to, hdrIdx)] = to })
	return su
}

func (su *Summary) get(slot Slot, field int) int64 {
	return int64(binary.LittleEndian.Uint64(su.t.State(slot)[field:]))
}

func (su *Summary) set(slot Slot, field int, v int64) {
	binary.LittleEndian.PutUint64(su.t.State(slot)[field:], uint64(v))
}

// Release hands the summary's bytes back to the pool at the end of its
// life: the summary and every key and state it handed out are dead
// from here on.
func (su *Summary) Release() { su.t.Release() }

// Slots returns s.
func (su *Summary) Slots() int { return su.s }

// Outcome describes what Offer did with a tuple's key.
type Outcome int

const (
	// Hit: the key was already monitored; its counters were bumped and
	// the caller should combine the tuple into its state.
	Hit Outcome = iota
	// Inserted: the key took a slot (possibly evicting another) with an
	// empty state the caller should initialize from the tuple.
	Inserted
	// Overflow: no slot available; every counter was decremented and
	// the caller must spill the tuple to its disk bucket.
	Overflow
)

// Offer presents a tuple's key. For Hit and Inserted, slot is the
// key's; for Inserted, evKey and evState are the displaced pair if a
// zero-count key was replaced (the caller spills it — or applies a
// query-specific eviction policy first), valid until the next Offer.
func (su *Summary) Offer(key []byte) (slot Slot, evKey, evState []byte, out Outcome) {
	su.m++
	slot, found := su.t.Find(key)
	switch {
	case found:
		su.set(slot, hdrC, su.get(slot, hdrC)+1)
		su.set(slot, hdrT, su.get(slot, hdrT)+1)
		su.down(int(su.get(slot, hdrIdx))) // a larger c can only sink
		return slot, nil, nil, Hit
	case su.t.Len() < su.s:
	case su.Count(su.heap[0]) <= 0:
		evKey, evState = su.Remove(su.heap[0])
	default: // all effective counts positive: decrement all, spill the tuple
		su.debt++
		return 0, nil, nil, Overflow
	}
	_, slot, _, _ = su.t.UpsertState(key, hdr, hdr)
	su.seq++
	su.push(slot, su.debt+1, 1, su.seq)
	return slot, evKey, evState, Inserted
}

func (su *Summary) push(slot Slot, c, t, seq int64) {
	su.set(slot, hdrC, c)
	su.set(slot, hdrT, t)
	su.set(slot, hdrSeq, seq)
	su.set(slot, hdrIdx, int64(len(su.heap)))
	su.heap = append(su.heap, slot)
	su.up(len(su.heap) - 1)
}

// Remove unmonitors the key at slot and returns views of its key and
// state, valid until the next Offer. Used by query-specific eviction
// policies, e.g. sessionization dropping expired sessions whose counter
// reached zero (§6.2).
func (su *Summary) Remove(slot Slot) (key, state []byte) {
	i, last := int(su.get(slot, hdrIdx)), len(su.heap)-1
	su.swap(i, last)
	su.heap = su.heap[:last]
	if i < last {
		su.down(i)
		su.up(i)
	}
	key, state = su.t.Delete(slot)
	return key, state[hdr:]
}

// less orders heap slots by (c, seq), a strict total order: every
// decision repeats whatever the heap's layout.
func (su *Summary) less(i, j int) bool {
	a, b := su.heap[i], su.heap[j]
	if ca, cb := su.get(a, hdrC), su.get(b, hdrC); ca != cb {
		return ca < cb
	}
	return su.get(a, hdrSeq) < su.get(b, hdrSeq)
}

func (su *Summary) swap(i, j int) {
	su.heap[i], su.heap[j] = su.heap[j], su.heap[i]
	su.set(su.heap[i], hdrIdx, int64(i))
	su.set(su.heap[j], hdrIdx, int64(j))
}

func (su *Summary) up(i int) {
	for p := (i - 1) / 2; i > 0 && su.less(i, p); i, p = p, (p-1)/2 {
		su.swap(i, p)
	}
}

func (su *Summary) down(i int) {
	for m := 2*i + 1; m < len(su.heap); i, m = m, 2*m+1 {
		if m+1 < len(su.heap) && su.less(m+1, m) {
			m++
		}
		if !su.less(m, i) {
			return
		}
		su.swap(i, m)
	}
}

// State returns the state of the key at slot.
func (su *Summary) State(slot Slot) []byte { return su.t.State(slot)[hdr:] }

// SetState replaces the state of the key at slot; st may alias it.
func (su *Summary) SetState(slot Slot, st []byte) { su.t.SetStateAt(slot, hdr, st) }

// Count returns the effective (estimated) frequency count of the key
// at slot.
func (su *Summary) Count(slot Slot) int64 { return su.get(slot, hdrC) - su.debt }

// Coverage returns the guaranteed coverage under-estimate
// γ = t/(t + M/(s+1)) for the key at slot (§4.3): the state provably
// reflects at least a γ fraction of all tuples with this key.
func (su *Summary) Coverage(slot Slot) float64 {
	t := float64(su.get(slot, hdrT))
	return t / (t + float64(su.m)/float64(su.s+1))
}

// Range calls fn with the monitored keys, their states and slots by
// age (monitoring start), giving deterministic flush order, until fn
// returns false. fn may Remove keys.
func (su *Summary) Range(fn func(key, state []byte, slot Slot) bool) {
	su.t.Range(func(key, h []byte, slot Slot) bool { return fn(key, h[hdr:], slot) })
}

// Saved is one monitored key in a serialized summary snapshot
// (reducer checkpointing): the key, its state, and the raw counters
// that make restoration behavior-identical.
type Saved struct {
	Key   []byte
	State []byte
	C     int64 // raw counter (effective count = C − debt)
	T     int64
	Seq   int64
}

// Save snapshots the summary for checkpointing: it appends every
// monitored key by age to dst[:0] and returns the global counters. Keys
// and states are views of the summary's bytes, valid until it changes.
func (su *Summary) Save(dst []Saved) (entries []Saved, debt, seq, m int64) {
	entries = dst[:0]
	su.t.Range(func(key, h []byte, slot Slot) bool {
		entries = append(entries, Saved{key, h[hdr:], su.get(slot, hdrC), su.get(slot, hdrT), su.get(slot, hdrSeq)})
		return true
	})
	return entries, su.debt, su.seq, su.m
}

// Load reconstructs a summary from a Save snapshot. Because the heap
// order (c, seq) is a strict total order over entries, the rebuilt
// structure makes exactly the decisions the original would have: a
// restored reducer replaying the same tuple suffix reproduces the
// original run bit for bit.
func Load(s int, entries []Saved, debt, seq, m int64) *Summary {
	su := NewSummary(s)
	su.debt, su.seq, su.m = debt, seq, m
	for _, sv := range entries {
		_, slot, _, _ := su.t.UpsertState(sv.Key, hdr, hdr+len(sv.State))
		su.SetState(slot, sv.State)
		su.push(slot, sv.C, sv.T, sv.Seq)
	}
	return su
}

// SavedBytes returns the serialized footprint of a Save snapshot, for
// checkpoint I/O accounting: keys, states, and three counters each.
func SavedBytes(entries []Saved) int64 {
	var b int64
	for _, sv := range entries {
		b += int64(len(sv.Key)+len(sv.State)) + 24
	}
	return b
}
