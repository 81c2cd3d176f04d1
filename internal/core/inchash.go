package core

import (
	"fmt"

	"repro/internal/bytestore"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/storage"
)

// INCHashReducer is the incremental hash technique of §4.2. Map output
// arrives as key-state pairs (init() was applied map-side); the
// reducer keeps an in-memory hash table H from key to state. An
// arriving tuple whose key is in H is combined into the state
// immediately (cb), so those tuples never touch disk. A new key is
// admitted while memory lasts; afterwards new keys hash (h3) to
// on-disk buckets through write buffers. When input ends, every key in
// H is finalized, then the disk buckets are processed one at a time —
// when memory ≥ √Δ each bucket's distinct states fit in memory and
// every spilled tuple is written and read exactly once.
//
// Queries implementing mr.EarlyEmitter produce answers during the
// in-memory path, which is what lets the INC reduce progress track the
// map progress (Fig 7(c)).
type INCHashReducer struct {
	rt        *Runtime
	inc       mr.Incremental
	early     mr.EarlyEmitter // may be nil
	prefix    string
	memBudget int64
	page      int64
	seg       int64
	maxDepth  int

	table   *bytestore.Table
	buckets *bucketSet
	out     mr.OutputWriter

	merged []byte     // cb() result scratch
	hold   heldOutput // early emissions of the bucket build in progress

	received  int64
	inMemRecs int64 // tuples combined on the in-memory path
}

// INCHashConfig sizes an INC-hash reducer.
type INCHashConfig struct {
	Prefix      string
	MemBudget   int64 // B_r physical bytes
	Page        int64
	ReadSegment int64
	// ExpectedStateBytes estimates Δ, the total size of all distinct
	// key-state pairs at this reducer, used to size h so each bucket's
	// states fit in memory when read back.
	ExpectedStateBytes int64
	MaxBuckets         int
}

// NewINCHashReducer creates the reducer. q must implement
// mr.Incremental; out receives early answers during processing.
func NewINCHashReducer(rt *Runtime, q mr.Query, cfg INCHashConfig, out mr.OutputWriter) *INCHashReducer {
	inc, ok := q.(mr.Incremental)
	if !ok {
		panic("core: INC-hash requires an Incremental query")
	}
	if cfg.MaxBuckets <= 0 {
		cfg.MaxBuckets = 1024
	}
	r := &INCHashReducer{
		rt:        rt,
		inc:       inc,
		prefix:    cfg.Prefix,
		memBudget: cfg.MemBudget,
		page:      cfg.Page,
		seg:       cfg.ReadSegment,
		maxDepth:  8,
		out:       out,
	}
	if e, ok := q.(mr.EarlyEmitter); ok {
		r.early = e
	}
	// Even when all states are expected to fit, bucketCount keeps one
	// bucket, so a bad hint degrades to spilling rather than failing.
	nDisk := bucketCount(cfg.ExpectedStateBytes-cfg.MemBudget, cfg.MemBudget, cfg.MaxBuckets)
	r.buckets = newBucketSet(rt, storage.ReduceSpill, cfg.Prefix, nDisk, cfg.Page, 2)
	r.table = bytestore.NewTable(rt.Fam.Fn(3), max(cfg.MemBudget-r.buckets.memoryBytes(), cfg.Page))
	return r
}

// Consume accepts one shuffled key-state tuple. The engine charges
// CPU per batch; FnRecords is counted here because only the in-memory
// path is incremental progress.
func (r *INCHashReducer) Consume(key, state []byte) {
	r.received++
	cur, slot, ok := FoldState(r.table, r.inc, &r.merged, key, state)
	if !ok {
		// Memory full and key not resident: stage to its bucket.
		r.buckets.add(key, state)
		return
	}
	if st := r.tryEmit(key, cur); !r.table.SetState(slot, st) {
		// The state outgrew the remaining arena: spill it and restart
		// the key's slot empty (the identity state). Rare; keeps the
		// budget honest.
		r.buckets.add(key, st)
		r.table.SetState(slot, st[:0])
	}
	r.inMemRecs++
	r.rt.FnRecords(1)
}

// FoldState is §4.2's fold step: upsert key into t, then cb() state
// into the resident one (scratch is cb()'s result buffer) or copy it
// into the fresh slot. The caller stores the result with t.SetState. ok
// is false, and t unchanged, when t has no room for a new key.
func FoldState(t *bytestore.Table, inc mr.Incremental, scratch *[]byte, key, state []byte) (cur []byte, slot bytestore.Slot, ok bool) {
	cur, slot, found, ok := t.UpsertState(key, len(state), inc.StateSize())
	if found {
		cur = mr.MergeInto(inc, scratch, key, cur, state)
	} else if ok {
		copy(cur, state)
	}
	return cur, slot, ok
}

func (r *INCHashReducer) tryEmit(key, state []byte) []byte {
	if r.early == nil {
		return state
	}
	return r.early.TryEmit(key, state, r.out)
}

// InMemoryRecords returns tuples combined without touching disk.
func (r *INCHashReducer) InMemoryRecords() int64 { return r.inMemRecs }

// SpilledPairs returns tuples staged to disk buckets.
func (r *INCHashReducer) SpilledPairs() int64 { return r.buckets.spilledPairs }

// Finish finalizes all in-memory states, then processes each on-disk
// bucket (recursively partitioning any bucket whose states exceed
// memory).
func (r *INCHashReducer) Finish() {
	r.buckets.flushAll()
	r.finalize(r.table)
	r.table = nil
	r.drainBuckets(r.buckets)
}

// finalize applies fn() to every state of t, charging one reduce
// record each, and releases t.
func (r *INCHashReducer) finalize(t *bytestore.Table) {
	batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
	t.Range(func(key, state []byte, _ func(func([]byte))) bool {
		r.inc.Finalize(key, state, r.out)
		batch.Add(1)
		return true
	})
	batch.Flush()
	t.Release()
}

// drainBuckets processes every on-disk bucket of b, then hands the
// held-output buffer back: the reducer is done.
func (r *INCHashReducer) drainBuckets(b *bucketSet) {
	b.drain(r.seg, func(data []byte) { r.processBucketBudget(data, 4, r.memBudget) })
	bytestore.Put(r.hold.buf)
	r.hold.buf = nil
}

// heldOutput buffers early emissions during a bucket-table build that
// may still be abandoned (table overflow → repartition and re-run):
// the re-run replays the same tuples through TryEmit, so emissions
// from an abandoned build would come out twice. They become durable
// only when the build commits. Key and value are copied, because
// queries reuse their emit scratch buffers across calls, as pairs into
// one pooled buffer the reducer reuses from build to build.
type heldOutput struct {
	buf []byte
}

// Emit implements mr.OutputWriter.
func (h *heldOutput) Emit(key, value []byte) {
	h.buf = kvenc.AppendPair(bytestore.Grow(h.buf, int(bytestore.PairBytes(len(key), len(value)))), key, value)
}

func (h *heldOutput) replay(out mr.OutputWriter) {
	it := kvenc.NewIterator(h.buf)
	for key, value, ok := it.Next(); ok; key, value, ok = it.Next() {
		out.Emit(key, value)
	}
	mustDecode(it.Err(), "held", "output")
}

// mustDecode panics with an iterator's framing error. Every stream a
// reducer decodes passed frame verification or never left memory, so a
// break is a bug, not disk damage.
func mustDecode(err error, prefix, what string) {
	if err != nil {
		panic(fmt.Errorf("core: corrupt pairs in %s %s: %w", prefix, what, err))
	}
}

// processBucketBudget builds a state table of budget bytes for one
// bucket's tuples and finalizes it; oversized buckets are recursively
// repartitioned with the next hash function. A bucket dominated by a
// single key cannot be split by hashing, and recursion can also hit
// the depth cap with adversarial data; both cases fall back to
// building the table without a memory cap — a correctness-over-
// accounting escape hatch for states a fixed budget cannot hold.
func (r *INCHashReducer) processBucketBudget(data []byte, level int, budget int64) {
	if level-4 >= r.maxDepth {
		budget = int64(len(data))*3 + (1 << 20)
	}
	t := bytestore.NewTable(r.rt.Fam.Fn(3), budget)
	fits := true
	var recs int64
	// Early emits during the build are held until the build commits —
	// an abandoned build's tuples are replayed and would re-emit.
	hold := &r.hold
	hold.buf = hold.buf[:0]
	realOut := r.out
	r.out = hold
	it := kvenc.NewIterator(data)
	for key, state, ok := it.Next(); ok && fits; key, state, ok = it.Next() {
		cur, slot, ok := FoldState(t, r.inc, &r.merged, key, state)
		if ok {
			recs++
			ok = t.SetState(slot, r.tryEmit(key, cur))
		}
		fits = ok
	}
	mustDecode(it.Err(), r.prefix, "bucket")
	r.out = realOut
	if fits {
		hold.replay(r.out)
		r.rt.FnRecords(recs)
		r.rt.ChargeOps(r.rt.Model.CPUCombine, recs)
		r.finalize(t)
		return
	}
	t.Release()
	split(r.rt, r.prefix, level, data, r.memBudget, r.page, r.seg, func(d []byte) {
		if len(d) == len(data) {
			// No progress (single dominant key): process uncapped.
			r.processBucketBudget(d, level+1, int64(len(d))*3+(1<<20))
		} else {
			r.processBucketBudget(d, level+1, r.memBudget)
		}
	})
}
