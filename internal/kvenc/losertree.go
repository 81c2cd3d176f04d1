package kvenc

import (
	"bytes"
	"encoding/binary"
	"slices"
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
// reference_test.go as the differential-test reference). A pair handed
// out stays valid through the next call for a pair: only then is its
// leaf read on, and a pair whose spill window turns over at that read
// is handed out as a copy in one of two carry buffers, used in turn.
type Merger struct {
	leaves []leaf
	spills []Spill // leaves 0..len(spills)-1
	tree   []int32 // internal nodes 1..k-1: loser leaf index
	winner int32
	taken  int32     // the leaf the last pair came from, -1 once read on
	carry  [2][]byte // [0] holds the last pair copied
	err    error
}

// Spill is a sorted run of Size bytes a merge reads through one window,
// the caller's (empty, the size of one read), that it keeps past the
// merge. The window grows only for a pair longer than itself. ReadAt
// runs on the goroutine driving the merge.
type Spill struct {
	Size   int64
	ReadAt func(dst []byte, off int64)
	Win    []byte
	off    int64 // bytes read so far
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
func NewMerger(runs [][]byte) *Merger { return Merge(nil, runs) }

// Merge creates a k-way merger over spills, then runs, in run order.
func Merge(spills []Spill, runs [][]byte) *Merger {
	k := len(spills) + len(runs)
	m := &Merger{leaves: make([]leaf, k), spills: spills, tree: make([]int32, k), winner: -1, taken: -1}
	for i, r := range runs {
		m.leaves[len(spills)+i].rest = r
	}
	for i := range k {
		m.load(int32(i))
	}
	if k > 0 {
		m.winner = m.initNode(1)
	}
	return m
}

// load measures the pair leaf i's run goes on with (reading a spill on
// as its window runs out), or retires the leaf at the end of its run or
// on invalid framing.
func (m *Merger) load(i int32) {
	l := &m.leaves[i]
	var ok bool
	for {
		if l.keyOff, l.keyEnd, l.end, ok = scanPair(l.rest); ok {
			break
		}
		if int(i) >= len(m.spills) || !m.spills[i].refill(l) {
			if len(l.rest) > 0 && m.err == nil {
				m.err = ErrCorrupt
			}
			return
		}
	}
	if key := l.rest[l.keyOff:l.keyEnd]; len(key) >= 8 {
		l.prefix = binary.BigEndian.Uint64(key)
	} else {
		var pad [8]byte
		copy(pad[:], key)
		l.prefix = binary.BigEndian.Uint64(pad[:])
	}
}

// refill moves what is left of l's window to its front and reads on
// behind it; a window the pair still does not fill whole grows. It
// reports false once the run is read whole.
func (s *Spill) refill(l *leaf) bool {
	if s.off == s.Size {
		return false
	}
	w := append(s.Win[:0], l.rest...)
	if len(w) == cap(w) { // a pair longer than the window
		w = slices.Grow(w, len(w)+1)
	}
	n := int(min(int64(cap(w)-len(w)), s.Size-s.off))
	s.ReadAt(w[len(w):len(w)+n], s.off)
	s.off += int64(n)
	s.Win, l.rest = w, w[:len(w)+n]
	return true
}

// beats reports whether leaf i wins the match against leaf j. An
// exhausted leaf loses to everything. Two zero-padded prefixes that
// differ order as their keys do; equal ones (also "ab" against
// "ab\x00") hold keys of at most eight bytes whole: the shorter wins,
// then the lower run. Only longer keys are compared.
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
	if la, lb := a.keyEnd-a.keyOff, b.keyEnd-b.keyOff; la <= 8 && lb <= 8 {
		return la < lb || la == lb && i < j
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
	if t := m.taken; t >= 0 {
		m.load(t)
		m.replay(t)
		m.taken = -1
	}
	w := m.winner
	if w < 0 || m.leaves[w].end == 0 {
		return nil, 0, 0, false
	}
	l := &m.leaves[w]
	pair, keyOff, keyEnd = l.rest[:l.end:l.end], l.keyOff, l.keyEnd
	l.rest = l.rest[l.end:]
	m.taken = w
	if int(w) < len(m.spills) && m.spills[w].off < m.spills[w].Size {
		if _, _, _, whole := scanPair(l.rest); !whole { // the next load refills over pair
			m.carry[0], m.carry[1] = append(m.carry[1][:0], pair...), m.carry[0]
			pair = m.carry[0][:len(pair):len(pair)]
		}
	}
	return pair, keyOff, keyEnd, true
}
