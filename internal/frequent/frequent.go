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
// victim is O(log s) via a min-heap ordered by (count, age), so the
// whole structure is deterministic: ties always evict the oldest
// monitored key.
//
// The standard Misra–Gries guarantee transfers: a key with frequency
// f_i has estimated count ĉ_i with f_i − M/(s+1) ≤ ĉ_i ≤ f_i after M
// tuples, hence at least Σ_i max(0, f_i − M/(s+1)) combine operations
// happen in memory (the paper's M′ bound), and the coverage
// underestimate γ_i = t/(t + M/(s+1)) ≤ t/f_i holds.
package frequent

import (
	"container/heap"
	"sort"
)

// Entry is one monitored key. Key and State may be read freely; State
// may be mutated in place (or replaced via SetState) by the combine
// function. The counters are managed by the Summary.
type Entry struct {
	Key   []byte
	State []byte

	c   int64 // raw counter; effective count = c − summary.debt
	t   int64 // tuples combined since this key became monitored
	seq int64 // monotone age for deterministic tie-breaking
	idx int   // heap index
}

// Count returns the effective (estimated) frequency count.
func (e *Entry) Count(s *Summary) int64 { return e.c - s.debt }

// SetState replaces the entry's state (for combine functions that
// reallocate).
func (e *Entry) SetState(st []byte) { e.State = st }

// entryHeap is a min-heap on (c, seq).
type entryHeap []*Entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].c != h[j].c {
		return h[i].c < h[j].c
	}
	return h[i].seq < h[j].seq
}
func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *entryHeap) Push(x interface{}) {
	e := x.(*Entry)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	e := old[n]
	old[n] = nil
	*h = old[:n]
	return e
}

// Summary is the FREQUENT structure with s monitoring slots.
type Summary struct {
	s       int
	debt    int64
	entries map[string]*Entry
	h       entryHeap
	seq     int64
	m       int64 // tuples offered
}

// New creates a summary with s ≥ 1 slots.
func New(s int) *Summary {
	if s < 1 {
		panic("frequent: need at least one slot")
	}
	return &Summary{s: s, entries: make(map[string]*Entry, s)}
}

// Slots returns s.
func (su *Summary) Slots() int { return su.s }

// Len returns the number of monitored keys.
func (su *Summary) Len() int { return len(su.entries) }

// M returns the number of tuples offered so far.
func (su *Summary) M() int64 { return su.m }

// Lookup returns the entry for key, or nil.
func (su *Summary) Lookup(key []byte) *Entry { return su.entries[string(key)] }

// Outcome describes what Offer did with a tuple's key.
type Outcome int

const (
	// Hit: the key was already monitored; its counters were bumped and
	// the caller should combine the tuple into Entry.State.
	Hit Outcome = iota
	// Inserted: the key took a slot (possibly evicting Evicted); the
	// caller should initialize Entry.State from the tuple.
	Inserted
	// Overflow: no slot available; every counter was decremented and
	// the caller must spill the tuple to its disk bucket.
	Overflow
)

// Offer presents a tuple's key. For Hit and Inserted the returned
// Entry is the key's slot; for Inserted, evicted is the displaced
// (key, state) pair if a zero-count key was replaced (the caller
// spills it — or applies a query-specific eviction policy first).
func (su *Summary) Offer(key []byte) (e *Entry, evicted *Entry, out Outcome) {
	su.m++
	if e := su.entries[string(key)]; e != nil {
		e.c++
		e.t++
		heap.Fix(&su.h, e.idx)
		return e, nil, Hit
	}
	if len(su.entries) < su.s {
		e := su.insert(key)
		return e, nil, Inserted
	}
	if min := su.h[0]; min.c-su.debt <= 0 {
		evicted = su.removeEntry(min)
		e := su.insert(key)
		return e, evicted, Inserted
	}
	// All effective counts positive: decrement all, spill the tuple.
	su.debt++
	return nil, nil, Overflow
}

func (su *Summary) insert(key []byte) *Entry {
	su.seq++
	e := &Entry{
		Key: append([]byte(nil), key...),
		c:   su.debt + 1,
		t:   1,
		seq: su.seq,
	}
	su.entries[string(key)] = e
	heap.Push(&su.h, e)
	return e
}

func (su *Summary) removeEntry(e *Entry) *Entry {
	heap.Remove(&su.h, e.idx)
	delete(su.entries, string(e.Key))
	return e
}

// Remove unmonitors key and returns its entry (nil if absent). Used by
// query-specific eviction policies, e.g. sessionization dropping
// expired sessions whose counter reached zero (§6.2).
func (su *Summary) Remove(key []byte) *Entry {
	e := su.entries[string(key)]
	if e == nil {
		return nil
	}
	return su.removeEntry(e)
}

// Entries returns the monitored entries ordered by age (monitoring
// start), giving deterministic flush order.
func (su *Summary) Entries() []*Entry {
	out := make([]*Entry, 0, len(su.entries))
	for _, e := range su.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// Coverage returns the guaranteed coverage under-estimate
// γ = t/(t + M/(s+1)) for an entry (§4.3): the state provably reflects
// at least a γ fraction of all tuples with this key.
func (su *Summary) Coverage(e *Entry) float64 {
	t := float64(e.t)
	return t / (t + float64(su.m)/float64(su.s+1))
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

// Save snapshots the summary for checkpointing: deep copies of every
// monitored entry in age order, plus the global counters. The summary
// is not modified.
func (su *Summary) Save() (entries []Saved, debt, seq, m int64) {
	for _, e := range su.Entries() {
		entries = append(entries, Saved{
			Key:   append([]byte(nil), e.Key...),
			State: append([]byte(nil), e.State...),
			C:     e.c,
			T:     e.t,
			Seq:   e.seq,
		})
	}
	return entries, su.debt, su.seq, su.m
}

// Load reconstructs a summary from a Save snapshot. Because the heap
// order (c, seq) is a strict total order over entries, the rebuilt
// structure makes exactly the decisions the original would have: a
// restored reducer replaying the same tuple suffix reproduces the
// original run bit for bit.
func Load(s int, entries []Saved, debt, seq, m int64) *Summary {
	su := New(s)
	su.debt, su.seq, su.m = debt, seq, m
	for _, sv := range entries {
		e := &Entry{
			Key:   append([]byte(nil), sv.Key...),
			State: append([]byte(nil), sv.State...),
			c:     sv.C,
			t:     sv.T,
			seq:   sv.Seq,
		}
		su.entries[string(e.Key)] = e
		heap.Push(&su.h, e)
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
