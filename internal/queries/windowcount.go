package queries

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// WindowCount is the stream-processing extension the paper's
// conclusion points to ("stream query processing with window
// operations"): visits per URL over tumbling time windows, with each
// window's counts emitted as soon as the window has provably closed —
// i.e. the watermark (max click timestamp seen, minus the disorder
// slack) has passed the window end.
//
// Keys are (window, url) pairs, so the state space cycles: on the
// incremental platforms a window's states are finalized and retired
// while later windows are still filling, giving continuous
// near-real-time output. The DINC-hash eviction hooks retire closed
// windows without spilling, exactly like sessionization's expired
// sessions.
//
// Late data: shuffle delivery can lag the mappers' watermark, so a
// window may receive tuples after its initial result was emitted. The
// query then emits supplementary records for the same (window, url)
// key — the standard allowed-lateness "update" semantics of stream
// processors. Consumers (and the tests) aggregate counts by key; the
// per-key sums are exact on every platform.
type WindowCount struct {
	countState
	window int64 // window length, ms
	slack  int64 // tolerated timestamp disorder, ms

	watermark int64
}

// NewWindowCount creates the query with the given tumbling window
// length and disorder slack.
func NewWindowCount(window, slack time.Duration) *WindowCount {
	if window <= 0 {
		panic("queries: window must be positive")
	}
	return &WindowCount{window: window.Milliseconds(), slack: slack.Milliseconds()}
}

// Name implements mr.Query.
func (q *WindowCount) Name() string { return "windowcount" }

// windowKey is "w<index>|<url>"; the fixed-width index keeps windows
// of one URL adjacent in sorted order for the sort-merge path.
func (q *WindowCount) windowKey(ts int64, url []byte) []byte {
	return []byte(fmt.Sprintf("w%08d|%s", ts/q.window, url))
}

// keyWindowEnd returns the end timestamp of the key's window.
func (q *WindowCount) keyWindowEnd(key []byte) int64 {
	var idx int64
	for _, c := range key[1:9] {
		idx = idx*10 + int64(c-'0')
	}
	return (idx + 1) * q.window
}

// Map implements mr.Query. It is pure — the engine may run it
// concurrently over input segments; the watermark advances through
// mr.Watermarker.
func (q *WindowCount) Map(record []byte, emit func(k, v []byte)) {
	emit(q.windowKey(clickTs(record), clickURL(record)), []byte("1"))
}

// RecordTime implements mr.Watermarker.
func (q *WindowCount) RecordTime(record []byte) int64 { return clickTs(record) }

// AdvanceWatermark implements mr.Watermarker.
func (q *WindowCount) AdvanceWatermark(ts int64) {
	if ts > q.watermark {
		q.watermark = ts
	}
}

// Reduce implements mr.Query.
func (q *WindowCount) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	out.Emit(key, []byte(strconv.FormatInt(sumIter(values), 10)))
}

// closed reports whether the key's window can no longer receive data.
func (q *WindowCount) closed(key []byte) bool {
	return q.keyWindowEnd(key)+q.slack <= q.watermark
}

// TryEmit implements mr.EarlyEmitter: once the watermark passes a
// window's end, its accumulated count is emitted and the counter
// resets — any late tuples accumulate toward a supplementary record.
func (q *WindowCount) TryEmit(key, state []byte, out mr.OutputWriter) []byte {
	c := countOf(state)
	pending := c &^ emittedBit
	if pending == 0 || !q.closed(key) {
		return state
	}
	out.Emit(key, []byte(strconv.FormatInt(int64(pending), 10)))
	putCount(state, emittedBit)
	return state
}

// Finalize implements mr.Incremental: end of input closes every
// window; any count not yet reported goes out as a (possibly
// supplementary) record.
func (q *WindowCount) Finalize(key, state []byte, out mr.OutputWriter) {
	if pending := countOf(state) &^ emittedBit; pending > 0 {
		out.Emit(key, []byte(strconv.FormatInt(int64(pending), 10)))
	}
}

// OnEvict implements mr.Evictor: a closed window's pending count is
// output directly instead of spilled; a state with nothing pending is
// simply dropped.
func (q *WindowCount) OnEvict(key, state []byte, out mr.OutputWriter) bool {
	if countOf(state)&^emittedBit == 0 {
		return true
	}
	if q.closed(key) {
		q.Finalize(key, state, out)
		return true
	}
	return false
}

// Scavenge implements mr.Scavenger: closed windows (and drained
// states) can be retired from the monitored set.
func (q *WindowCount) Scavenge(key, state []byte) bool {
	return countOf(state)&^emittedBit == 0 || q.closed(key)
}

// Watermark returns the max timestamp observed (tests).
func (q *WindowCount) Watermark() int64 { return q.watermark }

// Interface checks.
var (
	_ mr.Query        = &WindowCount{}
	_ mr.Combiner     = &WindowCount{}
	_ mr.Incremental  = &WindowCount{}
	_ mr.EarlyEmitter = &WindowCount{}
	_ mr.Evictor      = &WindowCount{}
	_ mr.Scavenger    = &WindowCount{}
	_ mr.Watermarker  = &WindowCount{}
)
