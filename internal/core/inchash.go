package core

import (
	"fmt"

	"repro/internal/bytestore"
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
	nDisk := 0
	if overflow := cfg.ExpectedStateBytes - cfg.MemBudget; overflow > 0 {
		nDisk = bucketCount(overflow, cfg.MemBudget, cfg.MaxBuckets)
	}
	// Even when all states are expected to fit, one defensive bucket
	// exists so a bad hint degrades to spilling rather than failing.
	r.buckets = newBucketSet(rt, storage.ReduceSpill, cfg.Prefix, max(nDisk, 1), cfg.Page, 2)
	budget := cfg.MemBudget - r.buckets.memoryBytes()
	if budget < cfg.Page {
		budget = cfg.Page
	}
	r.table = bytestore.NewTable(rt.Fam.Fn(3), budget)
	return r
}

// Consume accepts one shuffled key-state tuple. The engine charges
// CPU per batch; FnRecords is counted here because only the in-memory
// path is incremental progress.
func (r *INCHashReducer) Consume(key, state []byte) {
	r.received++
	pk := key
	cur, found, ok := r.table.UpsertState(pk, len(state), r.inc.StateSize())
	switch {
	case found:
		merged := mr.MergeInto(r.inc, &r.merged, key, cur, state)
		merged = r.tryEmit(key, merged)
		if !r.table.SetState(pk, merged) {
			// State outgrew the remaining arena: spill the merged
			// state and restart the key's slot small. Rare; keeps the
			// budget honest.
			r.buckets.add(key, merged)
			r.table.SetState(pk, merged[:0])
		}
		r.inMemRecs++
		r.rt.FnRecords(1)
	case ok:
		copy(cur, state)
		st := r.tryEmit(key, cur)
		if !r.table.SetState(pk, st) {
			// Couldn't retain the grown state: stage it to disk and
			// keep an empty (identity) state in the slot.
			r.buckets.add(key, st)
			r.table.SetState(pk, st[:0])
		}
		r.inMemRecs++
		r.rt.FnRecords(1)
	default:
		// Memory full and key not resident: stage to its bucket.
		r.buckets.add(key, state)
	}
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
	batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
	r.table.Range(func(key, state []byte, _ func(func([]byte))) bool {
		r.inc.Finalize(key, state, r.out)
		batch.Add(1)
		return true
	})
	batch.Flush()
	r.table = nil
	for i := 0; i < r.buckets.n(); i++ {
		data := r.buckets.readBucket(i, r.seg)
		if len(data) > 0 {
			r.processBucket(data, 4)
		}
	}
}

// heldOutput buffers early emissions during a bucket-table build that
// may still be abandoned (table overflow → repartition and re-run):
// the re-run replays the same tuples through TryEmit, so emissions
// from an abandoned build would come out twice. They become durable
// only when the build commits. Key and value are copied, because
// queries reuse their emit scratch buffers across calls, into one flat
// buffer the reducer reuses from build to build.
type heldOutput struct {
	buf  []byte // keys and values, back to back
	lens []int  // key length, value length of each emission
}

// Emit implements mr.OutputWriter.
func (h *heldOutput) Emit(key, value []byte) {
	h.buf = append(append(h.buf, key...), value...)
	h.lens = append(h.lens, len(key), len(value))
}

func (h *heldOutput) replay(out mr.OutputWriter) {
	off := 0
	for i := 0; i < len(h.lens); i += 2 {
		k, v := off+h.lens[i], off+h.lens[i]+h.lens[i+1]
		out.Emit(h.buf[off:k], h.buf[k:v])
		off = v
	}
}

// processBucket builds an in-memory state table for one bucket's
// tuples and finalizes it; oversized buckets are recursively
// repartitioned with the next hash function. A bucket dominated by a
// single key cannot be split by hashing, and recursion can also hit
// the depth cap with adversarial data; both cases fall back to
// building the table without a memory cap — a correctness-over-
// accounting escape hatch for states a fixed budget cannot hold.
func (r *INCHashReducer) processBucket(data []byte, level int) {
	r.processBucketBudget(data, level, r.memBudget)
}

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
	hold.buf, hold.lens = hold.buf[:0], hold.lens[:0]
	realOut := r.out
	r.out = hold
	bytestore.RangePairs(data, func(key, state []byte) bool {
		cur, found, ok := t.UpsertState(key, len(state), r.inc.StateSize())
		if !ok {
			fits = false
			return false
		}
		recs++
		if !found {
			copy(cur, state)
			st := r.tryEmit(key, cur)
			if !t.SetState(key, st) {
				fits = false
				return false
			}
			return true
		}
		merged := mr.MergeInto(r.inc, &r.merged, key, cur, state)
		merged = r.tryEmit(key, merged)
		if !t.SetState(key, merged) {
			fits = false
			return false
		}
		return true
	})
	r.out = realOut
	if fits {
		hold.replay(r.out)
		r.rt.FnRecords(recs)
		r.rt.ChargeOps(r.rt.Model.CPUCombine, recs)
		batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
		t.Range(func(key, state []byte, _ func(func([]byte))) bool {
			r.inc.Finalize(key, state, r.out)
			batch.Add(1)
			return true
		})
		batch.Flush()
		return
	}
	sub := newBucketSet(r.rt, storage.ReduceSpill,
		fmt.Sprintf("%s.l%d", r.prefix, level), bucketCount(int64(len(data)), r.memBudget, 64), r.page, level)
	bytestore.RangePairs(data, func(key, state []byte) bool {
		sub.add(key, state)
		return true
	})
	sub.flushAll()
	for i := 0; i < sub.n(); i++ {
		d := sub.readBucket(i, r.seg)
		switch {
		case len(d) == 0:
		case len(d) == len(data):
			// No progress (single dominant key): process uncapped.
			r.processBucketBudget(d, level+1, int64(len(d))*3+(1<<20))
		default:
			r.processBucket(d, level+1)
		}
	}
}
