package queries

import (
	"encoding/binary"
	"sort"
)

// eachClick iterates the packed clicks, returning the offset after the
// last visited click if fn stops iteration.
func eachClick(st []byte, fn func(off int, ts int64, rec []byte) bool) {
	for off := sessHeader; off < len(st); {
		ts := int64(binary.BigEndian.Uint64(st[off:]))
		l := int(binary.BigEndian.Uint16(st[off+8:]))
		rec := st[off+10 : off+10+l]
		if !fn(off, ts, rec) {
			return
		}
		off += 10 + l
	}
}

// referenceSessionMerge is the original Sessionization.MergeStates —
// collect every click of a and b, stable-sort by timestamp, re-pack
// into a fresh state — kept as the reference the linear two-way merge
// is differentially tested against (sessionmerge_test.go). It assumes
// nothing about the order of its inputs, so on the timestamp-ordered
// states the platforms hold the two must agree byte for byte.
func referenceSessionMerge(a, b []byte) []byte {
	if len(a) < sessHeader {
		return append([]byte(nil), b...)
	}
	if len(b) < sessHeader {
		return a
	}
	var merged []sessClick
	collect := func(st []byte) {
		eachClick(st, func(_ int, ts int64, rec []byte) bool {
			merged = append(merged, sessClick{ts, rec})
			return true
		})
	}
	collect(a)
	collect(b)
	sort.Stable(sessClicks(merged))
	// Keep a's bookkeeping; take the later lastEmit.
	out := make([]byte, sessHeader, len(a)+len(b))
	copy(out, a[:sessHeader])
	if lb := sessLastEmit(b); lb > sessLastEmit(out) {
		sessSetLastEmit(out, lb)
	}
	for _, c := range merged {
		out = appendClick(out, c.ts, c.rec)
	}
	return out
}

// sessClick is one packed click during a state splice; rec aliases
// the source state.
type sessClick struct {
	ts  int64
	rec []byte
}

// sessClicks sorts clicks by timestamp, stable on ties.
type sessClicks []sessClick

func (s sessClicks) Len() int           { return len(s) }
func (s sessClicks) Less(i, j int) bool { return s[i].ts < s[j].ts }
func (s sessClicks) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
