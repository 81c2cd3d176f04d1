package core

import (
	"repro/internal/frequent"
	"repro/internal/mr"
	"repro/internal/storage"
)

// DINCHashReducer is the dynamic incremental hash technique of §4.3.
// It extends INC-hash by *choosing* which keys deserve the in-memory
// path: a FREQUENT (Misra–Gries) summary with s slots monitors the
// keys estimated to be hottest, keeping their states in memory.
// Tuples of unmonitored keys — and evicted key-state pairs — hash to
// on-disk buckets. After input ends, the reducer either terminates
// early with coverage-guaranteed approximate answers (γ_i ≥ φ) or
// flushes the in-memory states to their buckets and completes exact
// processing bucket by bucket.
//
// Queries can customize eviction (mr.Evictor: sessionization outputs
// an evicted user's expired clicks instead of spilling them) and
// retire finished states proactively (mr.Scavenger), which is how the
// paper gets sessionization down to ~0.1GB of reduce spill.
type DINCHashReducer struct {
	rt     *Runtime
	inc    mr.Incremental
	early  mr.EarlyEmitter // may be nil
	evict  mr.Evictor      // may be nil
	scav   mr.Scavenger    // may be nil
	prefix string
	page   int64
	seg    int64
	cover  float64 // φ: coverage threshold for approximate answers
	out    mr.OutputWriter

	sum     *frequent.Summary
	buckets *bucketSet

	merged []byte           // cb() result scratch
	sketch []frequent.Saved // Snapshot's scratch

	scanEvery int64
	sinceScan int64

	received   int64
	inMemRecs  int64
	directOut  int64 // evictions fully handled by the query
	approxKeys int64 // keys answered approximately at early termination
}

// DINCHashConfig sizes a DINC-hash reducer.
type DINCHashConfig struct {
	Prefix      string
	MemBudget   int64 // B_r physical bytes (B pages worth)
	Page        int64 // write-buffer page size
	ReadSegment int64
	// ExpectedDistinctKeys is K at this reducer; with the per-slot
	// footprint it sets h = K·n_p/B so each bucket's keys fit in
	// memory for the final pass (§4.3 "hence we set h = K n_p / B").
	ExpectedDistinctKeys int64
	// KeyBytes is the expected key size (slot sizing).
	KeyBytes int
	// CoverageThreshold φ: if > 0, Finish may terminate early,
	// returning approximate states for monitored keys whose coverage
	// under-estimate γ_i ≥ φ.
	CoverageThreshold float64
	// ScanEvery triggers the scavenger scan every that many tuples
	// (0 disables).
	ScanEvery  int64
	MaxBuckets int
}

// NewDINCHashReducer creates the reducer; q must implement
// mr.Incremental.
func NewDINCHashReducer(rt *Runtime, q mr.Query, cfg DINCHashConfig, out mr.OutputWriter) *DINCHashReducer {
	inc, ok := q.(mr.Incremental)
	if !ok {
		panic("core: DINC-hash requires an Incremental query")
	}
	if cfg.MaxBuckets <= 0 {
		cfg.MaxBuckets = 1024
	}
	r := &DINCHashReducer{
		rt:        rt,
		inc:       inc,
		prefix:    cfg.Prefix,
		page:      cfg.Page,
		seg:       cfg.ReadSegment,
		out:       out,
		scanEvery: cfg.ScanEvery,
	}
	if e, ok := q.(mr.EarlyEmitter); ok {
		r.early = e
	}
	if e, ok := q.(mr.Evictor); ok {
		r.evict = e
	}
	if s, ok := q.(mr.Scavenger); ok {
		r.scav = s
	}
	// Per-slot footprint: key + state + counters/auxiliary.
	slot := int64(cfg.KeyBytes + inc.StateSize() + 48)
	// h = K·n_p/B ⇒ each bucket's K/h keys fit in B when read back.
	nDisk := bucketCount(cfg.ExpectedDistinctKeys*slot, cfg.MemBudget, cfg.MaxBuckets)
	r.buckets = newBucketSet(rt, storage.ReduceSpill, cfg.Prefix, nDisk, cfg.Page, 2)
	r.sum = frequent.NewSummary(int(max((cfg.MemBudget-r.buckets.memoryBytes())/slot, 1)))
	r.cover = cfg.CoverageThreshold
	return r
}

// Consume accepts one shuffled key-state tuple.
func (r *DINCHashReducer) Consume(key, state []byte) {
	r.received++
	slot, evKey, evState, outcome := r.sum.Offer(key)
	if evKey != nil {
		r.handleEviction(evKey, evState)
	}
	switch outcome {
	case frequent.Hit, frequent.Inserted:
		// A state merged in place is the slot's own; one built in the
		// scratch is copied back over it.
		st := r.sum.State(slot)
		if outcome == frequent.Hit {
			st = mr.MergeInto(r.inc, &r.merged, key, st, state)
		} else {
			r.sum.SetState(slot, state)
			st = r.sum.State(slot)
		}
		if r.early != nil {
			st = r.early.TryEmit(key, st, r.out)
		}
		r.sum.SetState(slot, st)
		r.inMemRecs++
		r.rt.FnRecords(1)
	case frequent.Overflow:
		r.buckets.add(key, state)
	}
	if r.scanEvery > 0 {
		r.sinceScan++
		if r.sinceScan >= r.scanEvery {
			r.sinceScan = 0
			r.scavenge()
		}
	}
}

// handleEviction routes an evicted (key, state) pair: the query may
// absorb it (sessionization outputs expired clicks); otherwise it is
// spilled to the key's bucket.
func (r *DINCHashReducer) handleEviction(key, state []byte) {
	if r.evict != nil && r.evict.OnEvict(key, state, r.out) {
		r.directOut++
		return
	}
	r.buckets.add(key, state)
}

// scavenge retires zero-count monitored keys whose states the query
// declares complete (§6.2 sessionization eviction rule: expired
// session AND zero counter).
func (r *DINCHashReducer) scavenge() {
	if r.scav == nil {
		return
	}
	r.sum.Range(func(key, state []byte, slot frequent.Slot) bool {
		if r.sum.Count(slot) <= 0 && r.scav.Scavenge(key, state) {
			r.handleEviction(r.sum.Remove(slot))
		}
		return true
	})
}

// InMemoryRecords returns tuples combined without touching disk.
func (r *DINCHashReducer) InMemoryRecords() int64 { return r.inMemRecs }

// SpilledPairs returns tuples and states staged to disk buckets.
func (r *DINCHashReducer) SpilledPairs() int64 { return r.buckets.spilledPairs }

// ApproxKeys returns keys answered approximately (early termination).
func (r *DINCHashReducer) ApproxKeys() int64 { return r.approxKeys }

// Finish completes the reduction. With φ > 0 and no spilled data — or
// for monitored keys whose γ ≥ φ when the user opted into approximate
// answers — states finalize straight from memory; otherwise in-memory
// states are written to their buckets and each bucket is processed
// exactly as in INC-hash.
func (r *DINCHashReducer) Finish() {
	batch := r.rt.Batch(r.rt.Model.CPUReduceRec)
	// Approximate early termination (φ > 0): answer monitored keys with
	// sufficient coverage from memory, spill the rest, and skip nothing
	// else — the under-covered keys and all bucket data still get exact
	// processing.
	r.sum.Range(func(key, state []byte, slot frequent.Slot) bool {
		if r.cover > 0 && r.sum.Coverage(slot) >= r.cover {
			r.inc.Finalize(key, state, r.out)
			r.approxKeys++
		} else {
			r.handleEviction(key, state)
		}
		batch.Add(1)
		return true
	})
	batch.Flush()
	r.sum.Release()
	r.buckets.flushAll()
	helper := &INCHashReducer{
		rt:         r.rt,
		inc:        r.inc,
		early:      r.early,
		bucketPass: bucketPass{r.prefix + ".post", r.bucketMem(), r.page, r.seg},
		out:        r.out,
	}
	helper.drainBuckets(r.buckets)
}

// bucketMem returns the memory available for the final bucket passes.
func (r *DINCHashReducer) bucketMem() int64 {
	return int64(r.sum.Slots())*int64(r.inc.StateSize()+64) + r.buckets.memoryBytes()
}
