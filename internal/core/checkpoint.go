package core

import (
	"repro/internal/frequent"
	"repro/internal/kvenc"
	"repro/internal/storage"
)

// StateImage is a consistent snapshot of an incremental reducer's
// long-lived state, taken at a tuple boundary: the in-memory key→state
// table (INC) or FREQUENT summary (DINC), serialized in the bytestore
// pair encoding, plus every on-disk bucket by reference. Together with
// the engine's record of which map outputs were already consumed, it
// is exactly what a restarted reducer needs to resume from the
// checkpoint and replay only the suffix of its input — instead of
// sort-merge's restart-from-scratch.
//
// Snapshots stay valid while the live reducer mutates its state, and
// they survive the death of the node that took them (the engine models
// the checkpoint as replicated off-node).
type StateImage struct {
	// Table is the serialized key→state table (INC-hash).
	Table     []byte
	TableKeys int

	// Sketch is the serialized FREQUENT summary (DINC-hash).
	Sketch                         []frequent.Saved
	SketchDebt, SketchSeq, SketchM int64

	// Log and LogPairs are the one serialized bucket: the ingest fold's
	// early-output log and its pair count.
	Log      []byte
	LogPairs int64

	// Refs holds a reducer's disk buckets by reference. It is not
	// serialized: the engine keeps it beside the framed image.
	Refs []BucketRef

	// Progress counters, restored for continuous statistics.
	Received, InMemRecs, DirectOut, SinceScan int64
}

// BucketRef is one reducer bucket in an image: its file's bytes as the
// store took them, followed by a copy of the write-buffer tail, and the
// pairs they hold.
type BucketRef struct {
	Bytes storage.Taken
	Pairs int64
}

// StateBytes returns the serialized size of the in-memory half (table
// or sketch) — rewritten in full at every checkpoint.
func (img *StateImage) StateBytes() int64 {
	return int64(len(img.Table)) + frequent.SavedBytes(img.Sketch)
}

// Snapshot captures the reducer's state for checkpointing. It is pure
// host work; the engine charges the checkpoint write itself. The table
// part is pooled: a caller done with it may give it back.
func (r *INCHashReducer) Snapshot() *StateImage {
	img := &StateImage{Table: r.table.AppendStates(nil), TableKeys: r.table.Len(), Refs: r.buckets.snapshot()}
	img.Received, img.InMemRecs = r.received, r.inMemRecs
	return img
}

// Restore loads a snapshot into a freshly constructed reducer (same
// configuration): the table is rebuilt key by key and the buckets are
// rematerialized on local disk (charged as spill writes by the bucket
// set). The engine charges the checkpoint read separately.
func (r *INCHashReducer) Restore(img *StateImage) {
	it := kvenc.NewIterator(img.Table)
	for key, state, ok := it.Next(); ok; key, state, ok = it.Next() {
		cur, _, found, ok := r.table.UpsertState(key, len(state), r.inc.StateSize())
		if found || !ok {
			// Duplicate keys cannot occur in an image; a budget refusal
			// means the fresh table is sized differently than the one
			// snapshotted — degrade to the spill path rather than fail.
			r.buckets.add(key, state)
			continue
		}
		copy(cur, state)
	}
	mustDecode(it.Err(), r.prefix, "checkpoint table")
	r.buckets.restore(img.Refs)
	r.received, r.inMemRecs = img.Received, img.InMemRecs
}

// Snapshot captures the reducer's state for checkpointing: the full
// FREQUENT summary (keys, states, and the counters that make replay
// bit-identical) plus the disk buckets.
func (r *DINCHashReducer) Snapshot() *StateImage {
	img := &StateImage{Refs: r.buckets.snapshot()}
	img.Sketch, img.SketchDebt, img.SketchSeq, img.SketchM = r.sum.Save()
	img.Received, img.InMemRecs = r.received, r.inMemRecs
	img.DirectOut, img.SinceScan = r.directOut, r.sinceScan
	return img
}

// Restore loads a snapshot into a freshly constructed DINC reducer.
func (r *DINCHashReducer) Restore(img *StateImage) {
	r.sum = frequent.Load(r.sum.Slots(), img.Sketch, img.SketchDebt, img.SketchSeq, img.SketchM)
	r.buckets.restore(img.Refs)
	r.received, r.inMemRecs = img.Received, img.InMemRecs
	r.directOut, r.sinceScan = img.DirectOut, img.SinceScan
}
