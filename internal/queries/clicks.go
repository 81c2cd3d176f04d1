// Package queries implements the paper's evaluation workloads (§2.3,
// §6) against the mr programming model:
//
//   - Sessionization: reorder a click stream into per-user sessions,
//     closing a session after 5 minutes of inactivity. Incremental with
//     a fixed-size per-user click buffer state (0.5KB/1KB/2KB in the
//     paper's experiments), early (streaming) output, and the DINC
//     eviction rule of §6.2.
//   - UserClickCount: clicks per user. Combinable and incremental.
//   - FrequentUsers: users with at least 50 clicks, emitted as soon as
//     the counter crosses the threshold (early output).
//   - PageFrequency: visits per URL.
//   - TrigramCount: word trigrams appearing at least 1000 times.
package queries

import (
	"bytes"
	"encoding/binary"
	"strconv"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// Click-record field extraction. Records are the fixed layout produced
// by internal/workload:
//
//	ts(13) \t user(8) \t url \t status \t bytes \t agent
const (
	clickTsEnd   = 13
	clickUserOff = 14
	clickUserEnd = 22
	clickURLOff  = 23
)

// clickTs parses the leading fixed-width millisecond timestamp.
func clickTs(record []byte) int64 {
	var ts int64
	for _, c := range record[:clickTsEnd] {
		ts = ts*10 + int64(c-'0')
	}
	return ts
}

// clickUser returns the user-id field.
func clickUser(record []byte) []byte { return record[clickUserOff:clickUserEnd] }

// clickURL returns the URL field.
func clickURL(record []byte) []byte {
	rest := record[clickURLOff:]
	if i := bytes.IndexByte(rest, '\t'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// countState helpers: 8-byte big-endian counters with bit 63 reserved
// as the "already emitted early" marker.
const emittedBit = uint64(1) << 63

func countOf(state []byte) uint64 {
	if len(state) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(state)
}

func putCount(state []byte, n uint64) { binary.BigEndian.PutUint64(state, n) }

// sumIter folds decimal values.
func sumIter(values kvenc.ValueIter) int64 {
	var total int64
	for {
		v, ok := values.Next()
		if !ok {
			return total
		}
		n, _ := strconv.ParseInt(string(v), 10, 64)
		total += n
	}
}

// counting is the shared core of the three counting queries.
type counting struct {
	countState
	name      string
	key       func(record []byte) []byte
	threshold int64 // emit keys with count ≥ threshold (0 = all)
	early     bool  // emit as soon as the threshold is reached
}

// Name implements mr.Query.
func (q *counting) Name() string { return q.name }

// Map implements mr.Query.
func (q *counting) Map(record []byte, emit func(k, v []byte)) {
	emit(q.key(record), []byte("1"))
}

// Reduce implements mr.Query.
func (q *counting) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	total := sumIter(values)
	if total >= q.threshold {
		out.Emit(key, []byte(strconv.FormatInt(total, 10)))
	}
}

// countState is the combine function and the 8-byte count state that
// every counting query, WindowCount included, shares.
type countState struct{}

// Combine implements mr.Combiner.
func (countState) Combine(key []byte, values kvenc.ValueIter, emit func(v []byte)) {
	emit([]byte(strconv.FormatInt(sumIter(values), 10)))
}

// Init implements mr.Incremental.
func (countState) Init(dst, key, value []byte) []byte {
	n, _ := strconv.ParseInt(string(value), 10, 64)
	return binary.BigEndian.AppendUint64(dst, uint64(n))
}

// MergeStates implements mr.Incremental.
func (countState) MergeStates(dst, key, a, b []byte) []byte {
	if len(a) < 8 {
		return append(dst[:0], b...)
	}
	ca, cb := countOf(a), countOf(b)
	mark := (ca | cb) & emittedBit
	putCount(a, (ca&^emittedBit)+(cb&^emittedBit)|mark)
	return a
}

// Finalize implements mr.Incremental.
func (q *counting) Finalize(key, state []byte, out mr.OutputWriter) {
	c := countOf(state)
	if c&emittedBit != 0 {
		return // answered early
	}
	if int64(c) >= q.threshold {
		out.Emit(key, []byte(strconv.FormatInt(int64(c), 10)))
	}
}

// StateSize implements mr.Incremental.
func (countState) StateSize() int { return 8 }

// earlyCounting adds threshold-triggered early output (frequent-user
// identification, trigram counting).
type earlyCounting struct{ counting }

// TryEmit implements mr.EarlyEmitter: emit the key the moment its
// count reaches the threshold (Fig 7(c)).
func (q *earlyCounting) TryEmit(key, state []byte, out mr.OutputWriter) []byte {
	c := countOf(state)
	if c&emittedBit != 0 {
		return state
	}
	if int64(c) >= q.threshold {
		out.Emit(key, []byte(strconv.FormatInt(int64(c), 10)))
		putCount(state, c|emittedBit)
	}
	return state
}

// NewClickCount returns the user click counting query.
func NewClickCount() mr.Query {
	return &counting{name: "clickcount", key: clickUser}
}

// NewPageFrequency returns the per-URL visit counting query.
func NewPageFrequency() mr.Query {
	return &counting{name: "pagefreq", key: clickURL}
}

// NewFrequentUsers returns the frequent-user identification query:
// users with at least threshold clicks, emitted as soon as the count
// is reached (§6: threshold 50).
func NewFrequentUsers(threshold int64) mr.Query {
	return &earlyCounting{counting{name: "frequsers", key: clickUser, threshold: threshold, early: true}}
}

// NewTrigramCount returns the trigram counting query over document
// lines: word trigrams appearing at least threshold times (§6:
// threshold 1000).
func NewTrigramCount(threshold int64) mr.Query {
	q := &earlyCounting{counting{name: "trigram", threshold: threshold, early: true}}
	q.key = nil // trigram emits multiple keys; Map is overridden
	return &trigramQuery{earlyCounting: *q}
}

// trigramQuery overrides Map to emit one key per word trigram.
type trigramQuery struct{ earlyCounting }

// Map implements mr.Query.
func (q *trigramQuery) Map(record []byte, emit func(k, v []byte)) {
	// Words are fixed-width "w%06d" separated by single spaces.
	var prev1, prev2 []byte
	for len(record) > 0 {
		var w []byte
		if i := bytes.IndexByte(record, ' '); i >= 0 {
			w, record = record[:i], record[i+1:]
		} else {
			w, record = record, nil
		}
		if len(w) == 0 {
			continue
		}
		if prev2 != nil {
			tri := make([]byte, 0, len(prev2)+len(prev1)+len(w)+2)
			tri = append(tri, prev2...)
			tri = append(tri, '_')
			tri = append(tri, prev1...)
			tri = append(tri, '_')
			tri = append(tri, w...)
			emit(tri, []byte("1"))
		}
		prev2, prev1 = prev1, w
	}
}

// Interface checks.
var (
	_ mr.Query        = &counting{}
	_ mr.Combiner     = &counting{}
	_ mr.Incremental  = &counting{}
	_ mr.EarlyEmitter = &earlyCounting{}
	_ mr.Query        = &trigramQuery{}
)
