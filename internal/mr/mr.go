// Package mr defines the user-facing MapReduce programming model
// shared by every platform in the repository: the classic map/reduce
// functions (§2.1), the optional combine function, and the paper's
// incremental-processing extension (§4.2) — initialize (init), combine
// (cb) and finalize (fn) over key states — plus the hooks DINC-hash
// uses for query-specific eviction (§4.3, sessionization) and early
// answers.
package mr

import "repro/internal/kvenc"

// OutputWriter receives final (and early) results of a job.
type OutputWriter interface {
	// Emit writes one output record.
	Emit(key, value []byte)
}

// Query is a MapReduce program: Map extracts ⟨key, value⟩ pairs from a
// record, Reduce processes each key's value list (§2.1). Map and Reduce
// must not write the receiver: the DES runs both on compute-pool
// goroutines, concurrently, on the one instance a job shares.
type Query interface {
	// Name identifies the query in reports.
	Name() string
	// Map transforms one input record into zero or more pairs.
	Map(record []byte, emit func(key, value []byte))
	// Reduce is applied to each group of values sharing a key.
	Reduce(key []byte, values kvenc.ValueIter, out OutputWriter)
}

// Combiner is implemented by queries whose reduce function is
// commutative and associative enough to admit partial aggregation: the
// combine function is applied after the map function and inside
// reducers when their buffers fill (§2.2). Like Map and Reduce it must
// not write the receiver.
type Combiner interface {
	// Combine folds a list of values for one key into fewer values.
	Combine(key []byte, values kvenc.ValueIter, emit func(value []byte))
}

// Incremental is implemented by queries that permit incremental
// processing (§4.2): init() reduces a value to a state, cb() merges
// states, and fn() produces the final answer from a state. The
// original reduce function is equivalent to cb followed by fn.
//
// Init and MergeStates are append-style, like kvenc.AppendPair: they
// write into dst, a buffer the caller owns, and never allocate a
// result of their own. The caller decides how long a result lives — a
// platform reuses one scratch slice per instance and copies what it
// keeps; a caller that wants to hold the result passes nil.
type Incremental interface {
	// Init appends the initial state of a map-output value to dst and
	// returns the extended slice (the paper applies init immediately
	// after the map function, turning the dataflow from key-value into
	// key-state pairs). dst must not overlap key or value.
	Init(dst, key, value []byte) []byte
	// MergeStates folds state b into state a for the key. It returns
	// either a itself, updated in place at unchanged length, or
	// dst[:0] extended with the merged state, leaving a intact: when a
	// platform cannot retain the merged result (memory exhausted) it
	// falls back to treating a as an unmerged partial state. b is only
	// read. dst must not overlap a, b or key; its contents are
	// overwritten.
	MergeStates(dst, key, a, b []byte) []byte
	// Finalize emits the key's final answer(s) from its state.
	Finalize(key, state []byte, out OutputWriter)
	// StateSize returns the fixed per-key state footprint in physical
	// bytes, used for memory accounting (the paper's sessionization
	// experiments vary exactly this: 0.5KB/1KB/2KB).
	StateSize() int
}

// EarlyEmitter is implemented by incremental queries that can output
// results before end of input (frequent-user identification emits a
// user as soon as its count reaches the threshold; sessionization
// streams out closed sessions). TryEmit is called after every
// in-memory state update.
type EarlyEmitter interface {
	// TryEmit may emit finished results and returns the (possibly
	// trimmed) state to retain.
	TryEmit(key, state []byte, out OutputWriter) []byte
}

// Watermarker is implemented by queries that maintain an event-time
// watermark (the max record timestamp observed by the map phase),
// which their reduce-side logic consults to decide what is final.
//
// Map implementations must be pure with respect to the query receiver
// — the engine may apply the map function to different input segments
// concurrently — so watermark tracking cannot live inside Map.
// Instead the engine extracts each record's timestamp with RecordTime
// (which must also be pure) and calls AdvanceWatermark at the exact
// points the record is delivered to the map-output collector, keeping
// the watermark trajectory deterministic for any parallelism.
type Watermarker interface {
	// RecordTime returns the event timestamp of one input record.
	RecordTime(record []byte) int64
	// AdvanceWatermark raises the watermark to ts if it is ahead of
	// the current value. Called serially by the engine.
	AdvanceWatermark(ts int64)
}

// Evictor customizes what happens when DINC-hash evicts a monitored
// key-state pair (§6.2: for sessionization, "rather than spilling the
// evicted state to disk, the clicks in it can be directly output").
type Evictor interface {
	// OnEvict returns true if the eviction was fully handled via out;
	// false means the platform must spill the (key, state) pair to its
	// disk bucket.
	OnEvict(key, state []byte, out OutputWriter) bool
}

// Scavenger lets a query proactively retire monitored states whose
// answers are already complete (sessionization: all clicks belong to
// an expired session). DINC-hash scans zero-count entries periodically
// and removes those the query releases.
type Scavenger interface {
	// Scavenge returns true if the key's state is complete and may be
	// retired after OnEvict/output.
	Scavenge(key, state []byte) bool
}

// Hints carry workload estimates the platforms use to size hash bucket
// counts, exactly like the paper's prototype uses a-priori knowledge
// when available (§5). Zero values fall back to conservative defaults.
type Hints struct {
	// Km is the expected map output:input size ratio.
	Km float64
	// Kr is the expected reduce output:input size ratio (0 = unknown).
	// Besides memory planning, Km/Kr feed the node-combine auto mode:
	// per-node combining pays off when the map output is much larger
	// than the distinct key set it collapses to.
	Kr float64
	// DistinctKeys is the expected number of distinct keys (the
	// paper's K), cluster-wide.
	DistinctKeys int64
}

// MergeInto calls inc.MergeStates with *scratch as dst and, when the
// merged state was built there rather than in a, keeps the (possibly
// regrown) buffer in *scratch for the next call.
func MergeInto(inc Incremental, scratch *[]byte, key, a, b []byte) []byte {
	out := inc.MergeStates((*scratch)[:0], key, a, b)
	if cap(out) > 0 && (cap(a) == 0 || &out[:1][0] != &a[:1][0]) {
		*scratch = out
	}
	return out
}

// FuncOutput adapts a function to OutputWriter (test convenience).
type FuncOutput func(key, value []byte)

// Emit implements OutputWriter.
func (f FuncOutput) Emit(key, value []byte) { f(key, value) }

// DiscardOutput ignores all output.
var DiscardOutput OutputWriter = FuncOutput(func(_, _ []byte) {})
