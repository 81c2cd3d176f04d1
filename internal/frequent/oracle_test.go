package frequent

import (
	"bytes"
	"container/heap"
	"fmt"
	"sort"
)

// Entry is one key the oracle monitors. Key and State may be read
// freely; State may be mutated in place (or replaced via SetState).
type Entry struct {
	Key   []byte
	State []byte

	c   int64 // raw counter; effective count = c − summary.debt
	t   int64 // tuples combined since this key became monitored
	seq int64 // monotone age for deterministic tie-breaking
	idx int   // heap index
}

// Count returns the effective (estimated) frequency count.
func (e *Entry) Count(l *lockstep) int64 { return e.c - l.or.debt }

// SetState replaces the entry's state.
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

// mapSummary is the FREQUENT summary as a map of entries under a
// container/heap: the shape Summary had before it moved onto
// bytestore.Table, kept as the oracle the table-backed one is held to.
type mapSummary struct {
	s       int
	debt    int64
	entries map[string]*Entry
	h       entryHeap
	seq     int64
	m       int64
}

func newMapSummary(s int) *mapSummary {
	if s < 1 {
		panic("frequent: need at least one slot")
	}
	return &mapSummary{s: s, entries: make(map[string]*Entry, s)}
}

func (su *mapSummary) Offer(key []byte) (e *Entry, evicted *Entry, out Outcome) {
	su.m++
	if e := su.entries[string(key)]; e != nil {
		e.c++
		e.t++
		heap.Fix(&su.h, e.idx)
		return e, nil, Hit
	}
	if len(su.entries) < su.s {
		return su.insert(key), nil, Inserted
	}
	if min := su.h[0]; min.c-su.debt <= 0 {
		evicted = su.removeEntry(min)
		return su.insert(key), evicted, Inserted
	}
	su.debt++
	return nil, nil, Overflow
}

func (su *mapSummary) insert(key []byte) *Entry {
	su.seq++
	e := &Entry{Key: append([]byte(nil), key...), c: su.debt + 1, t: 1, seq: su.seq}
	su.entries[string(key)] = e
	heap.Push(&su.h, e)
	return e
}

func (su *mapSummary) removeEntry(e *Entry) *Entry {
	heap.Remove(&su.h, e.idx)
	delete(su.entries, string(e.Key))
	return e
}

func (su *mapSummary) Remove(key []byte) *Entry {
	e := su.entries[string(key)]
	if e == nil {
		return nil
	}
	return su.removeEntry(e)
}

func (su *mapSummary) Entries() []*Entry {
	out := make([]*Entry, 0, len(su.entries))
	for _, e := range su.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

func (su *mapSummary) Coverage(e *Entry) float64 {
	t := float64(e.t)
	return t / (t + float64(su.m)/float64(su.s+1))
}

func (su *mapSummary) Save() (entries []Saved, debt, seq, m int64) {
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

// lockstep runs a Summary beside the oracle and panics at the first
// decision they disagree on: an outcome, an evicted key, a monitored
// key's counters, coverage or age order. The tests written against the
// oracle's API (New, Offer, Lookup, Entry.Count …) run on it, so they
// hold both. States are the caller's to keep equal.
type lockstep struct {
	or *mapSummary
	su *Summary
}

// New returns a lockstep pair of summaries with s slots.
func New(s int) *lockstep { return &lockstep{su: NewSummary(s), or: newMapSummary(s)} }

func (l *lockstep) Offer(key []byte) (e, evicted *Entry, out Outcome) {
	e, evicted, out = l.or.Offer(key)
	slot, evKey, _, got := l.su.Offer(key)
	if got != out || (evicted == nil) != (evKey == nil) || evicted != nil && !bytes.Equal(evicted.Key, evKey) {
		panic(fmt.Sprintf("offer %q: summary %v evicting %q, oracle %v evicting %v", key, got, evKey, out, evicted))
	}
	if e != nil {
		l.check(e, slot)
	}
	return e, evicted, out
}

// check compares the oracle's entry e with the summary's key at slot.
func (l *lockstep) check(e *Entry, slot Slot) {
	c, t, seq := l.su.get(slot, hdrC), l.su.get(slot, hdrT), l.su.get(slot, hdrSeq)
	if c-l.su.debt != e.c-l.or.debt || t != e.t || seq != e.seq || l.su.Coverage(slot) != l.or.Coverage(e) {
		panic(fmt.Sprintf("key %q: summary c=%d t=%d seq=%d, oracle c=%d t=%d seq=%d", e.Key, c-l.su.debt, t, seq, e.c-l.or.debt, e.t, e.seq))
	}
}

func (l *lockstep) Lookup(key []byte) *Entry {
	e := l.or.entries[string(key)]
	slot, ok := l.su.t.Find(key)
	if ok != (e != nil) {
		panic(fmt.Sprintf("lookup %q: summary %v, oracle %v", key, ok, e != nil))
	}
	if ok {
		l.check(e, slot)
	}
	return e
}

func (l *lockstep) Remove(key []byte) *Entry {
	if slot, ok := l.su.t.Find(key); ok {
		l.su.Remove(slot)
	}
	return l.or.Remove(key)
}

func (l *lockstep) Len() int {
	if l.su.t.Len() != len(l.or.entries) {
		panic(fmt.Sprintf("summary monitors %d keys, oracle %d", l.su.t.Len(), len(l.or.entries)))
	}
	return l.su.t.Len()
}

func (l *lockstep) Entries() []*Entry {
	entries, i := l.or.Entries(), 0
	l.su.Range(func(key, _ []byte, slot Slot) bool {
		if i == len(entries) || !bytes.Equal(key, entries[i].Key) {
			panic(fmt.Sprintf("summary's key %d is %q, out of the oracle's age order", i, key))
		}
		l.check(entries[i], slot)
		i++
		return true
	})
	if i != len(entries) {
		panic(fmt.Sprintf("summary ranges over %d keys, oracle %d", i, len(entries)))
	}
	return entries
}

func (l *lockstep) Coverage(e *Entry) float64 { return l.or.Coverage(e) }

func (l *lockstep) M() int64 {
	if l.su.m != l.or.m {
		panic("summary and oracle count different tuples")
	}
	return l.su.m
}
