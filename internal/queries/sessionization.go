package queries

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// Sessionization reorders page clicks into individual user sessions
// (§2.3): the map function extracts the user id and groups clicks by
// user; the reduce side arranges each user's clicks by timestamp,
// streams out the clicks of the current session, and closes a session
// after the gap (5 minutes in the paper) of inactivity.
//
// Incrementally (§6.1), the state is a fixed-size buffer of a user's
// pending clicks, kept timestamp-ordered; because map output arrives
// with bounded disorder, a click older than the global watermark minus
// the gap (and a slack for the disorder bound) can be emitted — the
// session it belongs to can never be re-opened. The DINC eviction rule
// of §6.2 is implemented via mr.Evictor/mr.Scavenger: a state whose
// clicks all belong to expired sessions is output directly instead of
// spilled.
//
// Output: one record per click, keyed by user, valued
// "s<session>\t<original record>", so the reduce output volume equals
// the input volume as in Table 1.
type Sessionization struct {
	gap       int64 // ms of inactivity that closes a session
	slack     int64 // ms of tolerated arrival disorder
	stateSize int

	watermark int64 // max click timestamp seen by the map function

	// emitFront runs in simulated-process context, which the DES kernel
	// serializes, so a per-query scratch buffer is safe and keeps the
	// per-click path allocation-free. Init and MergeStates have none:
	// they write into the caller's buffer. Reduce runs on compute-pool
	// goroutines and borrows its scratch from reduceScratches instead.
	emitBuf []byte // "s%04d\t<record>" assembly for Emit
}

// reduceScratch is what one Reduce call needs to stay allocation-free.
type reduceScratch struct {
	arena   []byte     // click records of the group
	refs    []clickRef // sort keys into arena
	emitBuf []byte     // "s%04d\t<record>" assembly for Emit
}

// reduceScratches is the free list Reduce borrows from. A mutex and a
// slice rather than a sync.Pool, which drops a random share of what is
// put back under the race detector: the job's allocation budget
// (engine.TestJobAllocBudget) counts the same with and without it.
var reduceScratches struct {
	sync.Mutex
	free []*reduceScratch
}

func borrowScratch() *reduceScratch {
	l := &reduceScratches
	l.Lock()
	defer l.Unlock()
	if n := len(l.free); n > 0 {
		sc := l.free[n-1]
		l.free = l.free[:n-1]
		return sc
	}
	return new(reduceScratch)
}

func returnScratch(sc *reduceScratch) {
	reduceScratches.Lock()
	reduceScratches.free = append(reduceScratches.free, sc)
	reduceScratches.Unlock()
}

// clickRef is one click collected by Reduce: its timestamp and the
// record's range in the arena (offsets, not slices, so arena growth
// cannot invalidate them).
type clickRef struct {
	ts       int64
	off, end int
}

// appendSession appends "s<session>\t<rec>" with the session number
// zero-padded to 4 digits — bytewise identical to
// Sprintf("s%04d\t%s", session, rec), which dominated reduce-side CPU
// profiles.
func appendSession(dst []byte, session int, rec []byte) []byte {
	var tmp [20]byte
	i := len(tmp)
	if session == 0 {
		i--
		tmp[i] = '0'
	}
	for x := session; x > 0; x /= 10 {
		i--
		tmp[i] = byte('0' + x%10)
	}
	for len(tmp)-i < 4 {
		i--
		tmp[i] = '0'
	}
	dst = append(dst, 's')
	dst = append(dst, tmp[i:]...)
	dst = append(dst, '\t')
	return append(dst, rec...)
}

// minSessionState is the smallest state buffer that holds one click.
const minSessionState = 64

// NewSessionization creates the query. stateSize is the per-user
// click-buffer state footprint in bytes (the paper evaluates 512, 1024
// and 2048); slack must exceed the workload's timestamp disorder
// bound.
func NewSessionization(gap time.Duration, stateSize int, slack time.Duration) *Sessionization {
	if stateSize < minSessionState {
		panic("queries: sessionization state too small to hold a click")
	}
	return &Sessionization{
		gap:       gap.Milliseconds(),
		slack:     slack.Milliseconds(),
		stateSize: stateSize,
	}
}

// Name implements mr.Query.
func (q *Sessionization) Name() string { return "sessionization" }

// Map implements mr.Query: key by user id with the whole record as
// the value. It is pure — the engine may run it concurrently over
// input segments; the watermark advances through mr.Watermarker.
func (q *Sessionization) Map(record []byte, emit func(k, v []byte)) {
	emit(clickUser(record), record)
}

// RecordTime implements mr.Watermarker.
func (q *Sessionization) RecordTime(record []byte) int64 { return clickTs(record) }

// AdvanceWatermark implements mr.Watermarker.
func (q *Sessionization) AdvanceWatermark(ts int64) {
	if ts > q.watermark {
		q.watermark = ts
	}
}

// Reduce implements mr.Query (the sort-merge / MR-hash path): sort the
// user's clicks by timestamp and emit them split into sessions.
func (q *Sessionization) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	sc := borrowScratch()
	defer returnScratch(sc)
	arena, refs := sc.arena[:0], sc.refs[:0]
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		off := len(arena)
		arena = append(arena, v...)
		refs = append(refs, clickRef{ts: clickTs(v), off: off, end: len(arena)})
	}
	sc.arena, sc.refs = arena, refs
	// Stable: clicks of one timestamp keep their arrival order.
	slices.SortStableFunc(refs, func(a, b clickRef) int { return cmp.Compare(a.ts, b.ts) })
	session, last := 0, int64(-1)
	for _, r := range refs {
		if last >= 0 && r.ts-last > q.gap {
			session++
		}
		last = r.ts
		sc.emitBuf = appendSession(sc.emitBuf[:0], session, arena[r.off:r.end])
		out.Emit(key, sc.emitBuf)
	}
}

// State layout:
//
//	[session u16][lastEmit i64][clicks: ([ts i64][len u16][record])*]
//
// clicks are kept in timestamp order. lastEmit is the timestamp of the
// last emitted click (0 = none yet).
const sessHeader = 2 + 8

func sessSession(st []byte) int       { return int(binary.BigEndian.Uint16(st)) }
func sessSetSession(st []byte, s int) { binary.BigEndian.PutUint16(st, uint16(s)) }
func sessLastEmit(st []byte) int64 {
	return int64(binary.BigEndian.Uint64(st[2:]))
}
func sessSetLastEmit(st []byte, ts int64) { binary.BigEndian.PutUint64(st[2:], uint64(ts)) }

// appendClick packs one click onto the state.
func appendClick(st []byte, ts int64, rec []byte) []byte {
	var hdr [10]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(ts))
	binary.BigEndian.PutUint16(hdr[8:], uint16(len(rec)))
	st = append(st, hdr[:]...)
	return append(st, rec...)
}

// Init implements mr.Incremental: a state holding one click.
func (q *Sessionization) Init(dst, key, value []byte) []byte {
	var hdr [sessHeader]byte
	return appendClick(append(dst, hdr[:]...), clickTs(value), value)
}

// MergeStates implements mr.Incremental: a two-way merge of the two
// timestamp-ordered click lists into dst (b is usually newer). Ties
// take from a first, which is the stable order of a followed by b.
func (q *Sessionization) MergeStates(dst, key, a, b []byte) []byte {
	if len(a) < sessHeader {
		return append(dst[:0], b...)
	}
	if len(b) < sessHeader {
		return a
	}
	// Keep a's bookkeeping; take the later lastEmit.
	dst = append(dst[:0], a[:sessHeader]...)
	if lb := sessLastEmit(b); lb > sessLastEmit(dst) {
		sessSetLastEmit(dst, lb)
	}
	i, j := sessHeader, sessHeader
	for i < len(a) && j < len(b) {
		src, off := a, &i
		if int64(binary.BigEndian.Uint64(b[j:])) < int64(binary.BigEndian.Uint64(a[i:])) {
			src, off = b, &j
		}
		end := *off + 10 + int(binary.BigEndian.Uint16(src[*off+8:]))
		dst = append(dst, src[*off:end]...)
		*off = end
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// emitFront pops and emits clicks from the front of the state while
// cond holds, maintaining session numbering, and returns the trimmed
// state.
func (q *Sessionization) emitFront(key, st []byte, out mr.OutputWriter, cond func(ts int64, size int) bool) []byte {
	if len(st) < sessHeader {
		return st
	}
	off := sessHeader
	session, last := sessSession(st), sessLastEmit(st)
	for off < len(st) {
		ts := int64(binary.BigEndian.Uint64(st[off:]))
		l := int(binary.BigEndian.Uint16(st[off+8:]))
		if !cond(ts, len(st)-off+sessHeader) {
			break
		}
		rec := st[off+10 : off+10+l]
		if last > 0 && ts-last > q.gap {
			session++
		}
		last = ts
		q.emitBuf = appendSession(q.emitBuf[:0], session, rec)
		out.Emit(key, q.emitBuf)
		off += 10 + l
	}
	if off == sessHeader {
		return st
	}
	// Compact: move the tail down over the emitted prefix.
	n := copy(st[sessHeader:], st[off:])
	st = st[:sessHeader+n]
	sessSetSession(st, session)
	sessSetLastEmit(st, last)
	return st
}

// TryEmit implements mr.EarlyEmitter: stream out clicks whose sessions
// can no longer change — those older than watermark − gap − slack —
// and force out the oldest clicks when the buffer exceeds its fixed
// size (the bounded-disorder buffer of §6.1).
func (q *Sessionization) TryEmit(key, state []byte, out mr.OutputWriter) []byte {
	horizon := q.watermark - q.gap - q.slack
	return q.emitFront(key, state, out, func(ts int64, size int) bool {
		return ts <= horizon || size > q.stateSize
	})
}

// Finalize implements mr.Incremental: end of input closes every
// session.
func (q *Sessionization) Finalize(key, state []byte, out mr.OutputWriter) {
	q.emitFront(key, state, out, func(int64, int) bool { return true })
}

// StateSize implements mr.Incremental.
func (q *Sessionization) StateSize() int { return q.stateSize }

// OnEvict implements mr.Evictor (§6.2): if every buffered click
// belongs to an expired session, the clicks are output directly
// instead of being spilled to disk.
func (q *Sessionization) OnEvict(key, state []byte, out mr.OutputWriter) bool {
	if q.allExpired(state) {
		q.Finalize(key, state, out)
		return true
	}
	return false
}

// Scavenge implements mr.Scavenger: a zero-count monitored state whose
// clicks are all expired can be retired.
func (q *Sessionization) Scavenge(key, state []byte) bool {
	return q.allExpired(state)
}

func (q *Sessionization) allExpired(state []byte) bool {
	horizon := q.watermark - q.gap - q.slack
	for off := sessHeader; off < len(state); off += 10 + int(binary.BigEndian.Uint16(state[off+8:])) {
		if int64(binary.BigEndian.Uint64(state[off:])) > horizon {
			return false
		}
	}
	return true
}

// Watermark returns the max click timestamp observed (for tests).
func (q *Sessionization) Watermark() int64 { return q.watermark }

// Interface checks.
var (
	_ mr.Query        = &Sessionization{}
	_ mr.Incremental  = &Sessionization{}
	_ mr.EarlyEmitter = &Sessionization{}
	_ mr.Evictor      = &Sessionization{}
	_ mr.Scavenger    = &Sessionization{}
	_ mr.Watermarker  = &Sessionization{}
)
