package core

import (
	"repro/internal/bytestore"
	"repro/internal/frequent"
)

// StateImage is a consistent snapshot of an incremental reducer's
// long-lived state, taken at a tuple boundary: the in-memory key→state
// table (INC) or FREQUENT summary (DINC), serialized in the bytestore
// pair encoding, plus the cumulative contents of every on-disk bucket.
// Together with the engine's record of which map outputs were already
// consumed, it is exactly what a restarted reducer needs to resume
// from the checkpoint and replay only the suffix of its input —
// instead of sort-merge's restart-from-scratch.
//
// Snapshots copy; they stay valid while the live reducer mutates its
// state, and they survive the death of the node that took them (the
// engine models the checkpoint as replicated off-node).
type StateImage struct {
	// Table is the serialized key→state table (INC-hash).
	Table     []byte
	TableKeys int

	// Sketch is the serialized FREQUENT summary (DINC-hash).
	Sketch                         []frequent.Saved
	SketchDebt, SketchSeq, SketchM int64

	// Buckets holds each disk bucket's cumulative bytes (flushed file
	// plus the in-memory write-buffer tail) and pair counts.
	Buckets     [][]byte
	BucketPairs []int64

	// Progress counters, restored for continuous statistics.
	Received, InMemRecs, DirectOut, SinceScan int64
}

// StateBytes returns the serialized size of the in-memory half (table
// or sketch) — rewritten in full at every checkpoint.
func (img *StateImage) StateBytes() int64 {
	return int64(len(img.Table)) + frequent.SavedBytes(img.Sketch)
}

// BucketLens returns per-bucket cumulative lengths (delta accounting).
func (img *StateImage) BucketLens() []int64 {
	lens := make([]int64, len(img.Buckets))
	for i, d := range img.Buckets {
		lens[i] = int64(len(d))
	}
	return lens
}

// Snapshot captures the reducer's state for checkpointing. It is pure
// host work; the engine charges the checkpoint write itself.
func (r *INCHashReducer) Snapshot() *StateImage {
	img := &StateImage{}
	r.table.Range(func(key, state []byte, _ func(func([]byte))) bool {
		img.Table = bytestore.AppendPair(img.Table, key, state)
		img.TableKeys++
		return true
	})
	img.Buckets, img.BucketPairs = r.buckets.snapshot()
	img.Received, img.InMemRecs = r.received, r.inMemRecs
	return img
}

// Restore loads a snapshot into a freshly constructed reducer (same
// configuration): the table is rebuilt key by key and the buckets are
// rematerialized on local disk (charged as spill writes by the bucket
// set). The engine charges the checkpoint read separately.
func (r *INCHashReducer) Restore(img *StateImage) {
	bytestore.RangePairs(img.Table, func(key, state []byte) bool {
		cur, _, found, ok := r.table.UpsertState(key, len(state), r.inc.StateSize())
		if found || !ok {
			// Duplicate keys cannot occur in an image; a budget refusal
			// means the fresh table is sized differently than the one
			// snapshotted — degrade to the spill path rather than fail.
			r.buckets.add(key, state)
			return true
		}
		copy(cur, state)
		return true
	})
	r.buckets.restore(img.Buckets, img.BucketPairs)
	r.received, r.inMemRecs = img.Received, img.InMemRecs
}

// Snapshot captures the reducer's state for checkpointing: the full
// FREQUENT summary (keys, states, and the counters that make replay
// bit-identical) plus the disk buckets.
func (r *DINCHashReducer) Snapshot() *StateImage {
	img := &StateImage{}
	img.Sketch, img.SketchDebt, img.SketchSeq, img.SketchM = r.sum.Save()
	img.Buckets, img.BucketPairs = r.buckets.snapshot()
	img.Received, img.InMemRecs = r.received, r.inMemRecs
	img.DirectOut, img.SinceScan = r.directOut, r.sinceScan
	return img
}

// Restore loads a snapshot into a freshly constructed DINC reducer.
func (r *DINCHashReducer) Restore(img *StateImage) {
	r.sum = frequent.Load(r.sum.Slots(), img.Sketch, img.SketchDebt, img.SketchSeq, img.SketchM)
	r.buckets.restore(img.Buckets, img.BucketPairs)
	r.received, r.inMemRecs = img.Received, img.InMemRecs
	r.directOut, r.sinceScan = img.DirectOut, img.SinceScan
}
