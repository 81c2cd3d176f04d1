// Package core implements the paper's primary contribution: the
// hash-based data analysis platform of §4. It contains
//
//   - the hash-based map output collector (§5 "Hash-based Map Output"):
//     sort-free partitioning, with map-side combine / initialize
//     applied through an in-memory hash table;
//   - MR-hash (§4.1): hybrid-hash group-by at reducers with one bucket
//     held fully in memory and recursive partitioning on overflow;
//   - INC-hash (§4.2): incremental in-memory processing of key states
//     with overflow keys hashed to on-disk buckets;
//   - DINC-hash (§4.3): frequent-key monitoring (internal/frequent) so
//     hot keys stay on the in-memory path, with query-specific
//     eviction, coverage estimation, and approximate early answers.
//
// The reducers are platform components driven by the engine: the
// engine feeds them shuffled segments (charging CPU per batch) and
// calls Finish once all map output has arrived.
package core

import (
	"time"

	"repro/internal/cost"
	"repro/internal/hashfam"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// Runtime is the per-task execution context the engine hands to
// platform components: the task's substrate process (simulated or
// wall-clock), the node store for spills, the cost model, the hash
// family, and accounting callbacks.
type Runtime struct {
	P     substrate.Proc
	Store *storage.Store
	Model cost.Model
	Fam   *hashfam.Family

	// ChargeCPU runs a virtual CPU burst attributed to this task (the
	// engine acquires a core and bills the right ledger). Must accept
	// zero durations.
	ChargeCPU func(d time.Duration)

	// FnRecords counts records passing through a combine/reduce
	// function for the Definition 1 reduce-progress metric. It must be
	// cheap: it is called once per record on the in-memory path.
	FnRecords func(n int64)

	// Backing, when set, draws n bytes for a map output's Backing: the
	// wall clock recycles them. Nil (the DES) allocates.
	Backing func(n int) []byte
}

// MapParts is one unit of partitioned map output: what a map-side
// collector finishes with and a shuffle unit carries to the reducers.
type MapParts struct {
	Segs [][][]byte // each partition's encoded segments
	// Recs is each segment's pair count, parallel to Segs: sort-merge
	// reducers price their merges from it instead of re-scanning. Nil
	// from the hash collectors, whose reducers count as they insert.
	Recs [][]int64
	// Backing, when non-nil, is the one buffer (NewBacking) the
	// segments are adjacent ranges of, in partition order: the map
	// output file adopts it instead of gathering a copy.
	Backing []byte
}

// NewBacking returns n bytes for a map output's Backing (Runtime.Backing).
func (rt *Runtime) NewBacking(n int) []byte {
	if rt.Backing != nil {
		return rt.Backing(n)
	}
	return make([]byte, n)
}

// ChargeOps bills n operations at per-logical-op cost per.
func (rt *Runtime) ChargeOps(per time.Duration, n int64) {
	if n > 0 {
		rt.ChargeCPU(rt.Model.CPUOps(per, n))
	}
}

// NopRuntime returns a runtime with no-op accounting for tests.
func NopRuntime(p substrate.Proc, store *storage.Store, m cost.Model) *Runtime {
	return &Runtime{
		P:         p,
		Store:     store,
		Model:     m,
		Fam:       hashfam.NewFamily(1),
		ChargeCPU: func(time.Duration) {},
		FnRecords: func(int64) {},
	}
}

// Batcher accumulates per-operation CPU charges and flushes them in
// bounded bursts (~50ms of virtual time), so long reduce/finalize
// loops interleave with their own output I/O instead of blocking a
// core with one giant burst at task end.
type Batcher struct {
	rt      *Runtime
	per     time.Duration
	pending int64
}

// Batch creates a batcher charging per-logical-op cost per.
func (rt *Runtime) Batch(per time.Duration) *Batcher {
	return &Batcher{rt: rt, per: per}
}

// Add accumulates n operations, flushing when the accumulated virtual
// time reaches the burst bound.
func (b *Batcher) Add(n int64) {
	b.pending += n
	if b.rt.Model.CPUOps(b.per, b.pending) >= 50*time.Millisecond {
		b.Flush()
	}
}

// Flush charges any accumulated operations.
func (b *Batcher) Flush() {
	if b.pending > 0 {
		b.rt.ChargeOps(b.per, b.pending)
		b.pending = 0
	}
}
