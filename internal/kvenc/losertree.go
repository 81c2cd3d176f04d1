package kvenc

import (
	"bytes"
	"encoding/binary"
)

// Merger produces the merged (key-ordered) sequence of several runs.
// A corrupt run stops contributing at its first invalid pair; the
// merge continues over the remaining runs and Err reports the damage,
// so callers fail loudly instead of silently losing a run's tail
// (kvenc itself never panics on corrupt bytes — worker goroutines
// must not bring down the kernel).
//
// The merger is a tournament loser tree: internal nodes hold the
// loser of the match below them and the overall winner sits at the
// root, so replacing the winner after each Next replays exactly one
// leaf-to-root path — ⌈log₂ k⌉ comparisons, no interface boxing, no
// sift-down branching. A match compares the first eight key bytes,
// cached per leaf as one integer, before the keys themselves. Ties
// between runs resolve by run index, which preserves the stable "run
// order wins" contract of the heap merger it replaced (kept in
// reference_test.go as the differential-test reference).
type Merger struct {
	leaves []leaf
	tree   []int32 // internal nodes 1..k-1: loser leaf index
	winner int32
	err    error
}

// leaf is one run's position in the merge: the run from its current
// pair on, and where that pair's key and value lie in it. end is 0 once
// the run is exhausted (a pair takes two bytes at least).
type leaf struct {
	rest                []byte
	keyOff, keyEnd, end int
	prefix              uint64 // first eight key bytes, big-endian, zero-padded
}

// NewMerger creates a k-way merger over the given runs. Leaf index ==
// run index, so tie-breaks follow run order exactly.
func NewMerger(runs [][]byte) *Merger {
	m := &Merger{leaves: make([]leaf, len(runs)), tree: make([]int32, len(runs)), winner: -1}
	for i, r := range runs {
		m.leaves[i].rest = r
		m.load(&m.leaves[i])
	}
	if len(runs) > 0 {
		m.winner = m.initNode(1)
	}
	return m
}

// load measures the pair l.rest starts with, or retires the leaf at
// the end of its run or on invalid framing.
func (m *Merger) load(l *leaf) {
	var ok bool
	if l.keyOff, l.keyEnd, l.end, ok = scanPair(l.rest); !ok {
		if len(l.rest) > 0 && m.err == nil {
			m.err = ErrCorrupt
		}
		return
	}
	if key := l.rest[l.keyOff:l.keyEnd]; len(key) >= 8 {
		l.prefix = binary.BigEndian.Uint64(key)
	} else {
		var pad [8]byte
		copy(pad[:], key)
		l.prefix = binary.BigEndian.Uint64(pad[:])
	}
}

// beats reports whether leaf i wins the match against leaf j. An
// exhausted leaf loses to everything. Two zero-padded prefixes that
// differ order as their keys do; equal ones (also "ab" against
// "ab\x00") decide nothing.
func (m *Merger) beats(i, j int32) bool {
	a, b := &m.leaves[i], &m.leaves[j]
	switch {
	case a.end == 0:
		return false
	case b.end == 0:
		return true
	case a.prefix != b.prefix:
		return a.prefix < b.prefix
	}
	if c := bytes.Compare(a.rest[a.keyOff:a.keyEnd], b.rest[b.keyOff:b.keyEnd]); c != 0 {
		return c < 0
	}
	return i < j
}

// initNode builds the tournament below internal node n (leaves live
// at positions k..2k-1 of the implicit complete tree), storing losers
// on the way up and returning the subtree's winner.
func (m *Merger) initNode(n int) int32 {
	if k := len(m.leaves); n >= k {
		return int32(n - k)
	}
	w1 := m.initNode(2 * n)
	w2 := m.initNode(2*n + 1)
	if m.beats(w2, w1) {
		w1, w2 = w2, w1
	}
	m.tree[n] = w2
	return w1
}

// replay re-runs the matches on leaf l's path to the root after its
// value changed, updating the overall winner.
func (m *Merger) replay(l int32) {
	w := l
	for n := (int(l) + len(m.leaves)) / 2; n >= 1; n /= 2 {
		if m.beats(m.tree[n], w) {
			w, m.tree[n] = m.tree[n], w
		}
	}
	m.winner = w
}

// Err returns ErrCorrupt if any input run stopped on invalid framing
// rather than a clean end of run. Check it after the merge drains.
func (m *Merger) Err() error { return m.err }

// Next returns the next pair in merged key order.
func (m *Merger) Next() (key, val []byte, ok bool) {
	pair, keyOff, keyEnd, ok := m.next() // nil and zeros once drained
	return pair[keyOff:keyEnd:keyEnd], pair[keyEnd:], ok
}

// next is Next returning the pair as it stands encoded in its run
// (capacity clipped) and the key's range in it.
func (m *Merger) next() (pair []byte, keyOff, keyEnd int, ok bool) {
	w := m.winner
	if w < 0 || m.leaves[w].end == 0 {
		return nil, 0, 0, false
	}
	l := &m.leaves[w]
	pair, keyOff, keyEnd = l.rest[:l.end:l.end], l.keyOff, l.keyEnd
	l.rest = l.rest[l.end:]
	m.load(l)
	m.replay(w)
	return pair, keyOff, keyEnd, true
}
