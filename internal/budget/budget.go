// Package budget is the daemon's one byte budget. Three kinds of holder
// draw on it: the ingester's accepted-but-unfolded batches, its resident
// fold, and the predicted peak heap of every running job. Jobs never
// take the last quarter, so ingest always keeps that much of it. While
// jobs run it also derives the process's Go soft memory limit from what
// it admitted, ingest's early-output log included.
package budget

import (
	"math"
	"sync"

	"repro/internal/bytestore"
)

// NoLimit is the soft memory limit reported while no job runs: the
// Go runtime's own "no limit".
const NoLimit = math.MaxInt64

// maxIngest is the most of any budget ingest takes: half of what the
// fold's table, one arena, can address, so a fold past its charges fits.
const maxIngest = bytestore.MaxArenaBytes / 2

// Budget is safe for concurrent use.
type Budget struct {
	limit int64

	mu       sync.Mutex
	inflight int64 // ingest's accepted-but-unfolded bytes
	fold     int64 // ingest's fold table
	log      int64 // ingest's early-output log: in the soft limit only
	reserved int64 // the running jobs' predicted peaks
	runs     int   // running jobs with a prediction
	blind    int   // running jobs without one (Reserve(0))

	// Soft limit wiring (SoftLimit); set is nil until wired.
	base    int64
	set     func(int64)
	soft    int64 // last reported; NoLimit while no job runs
	covered int64 // in-flight bytes soft covers, a multiple of step
	moved   int64 // bytes given back or held since soft was last reported
}

// New returns a budget of limit bytes.
func New(limit int64) *Budget { return &Budget{limit: limit, soft: NoLimit} }

// jobShare is the most of the budget the jobs' reservations take from
// ingest: all but its last quarter.
func (b *Budget) jobShare() int64 { return b.limit - b.limit/4 }

// step is how far ingest's bytes move, in flight, folded or held, before
// the soft limit follows them: an eighth of the budget, so a run sees at
// most a few recomputations from ingest.
func (b *Budget) step() int64 { return max(1, b.limit/8) }

// Take admits n in-flight bytes if they fit beside ingest's other bytes,
// its fold's included, and the jobs' reservations up to their share, and
// within maxIngest, and reports whether it did.
func (b *Budget) Take(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ingest := b.inflight + b.fold + n; ingest+min(b.reserved, b.jobShare()) > b.limit || ingest > maxIngest {
		return false
	}
	b.inflight += n
	if b.soft != NoLimit && (b.inflight > b.covered || b.moved >= b.step()) {
		b.report()
	}
	return true
}

// Give returns n in-flight bytes, folded or dropped.
func (b *Budget) Give(n int64) {
	b.mu.Lock()
	b.inflight -= n
	b.moved += n
	b.mu.Unlock()
}

// Hold adds fold and log, which may be negative, to ingest's fold table
// and early-output log. It never refuses: the fold's batches were acked,
// so ingest sheds the ones after them instead. The log is in the soft
// limit only, so it never stops ingest. The soft limit follows once a
// step has moved.
func (b *Budget) Hold(fold, log int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fold += fold
	b.log += log
	b.moved += max(fold, -fold) + max(log, -log)
	if b.soft != NoLimit && b.moved >= b.step() {
		b.report()
	}
}

// Reserve charges a starting job's predicted peak n if it fits beside
// ingest's bytes and within the jobs' share, or if no job holds a
// reservation, and reports whether it did. So the first job never waits
// on ingest's bytes, which drain by themselves, and a job predicted above
// the jobs' share runs alone. n = 0 means the job has no prediction: it
// always starts, and while it runs there is no soft limit, since its heap
// is not known.
func (b *Budget) Reserve(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n == 0 {
		b.blind++
	} else {
		if b.runs > 0 && (b.inflight+b.fold+b.reserved+n > b.limit || b.reserved+n > b.jobShare()) {
			return false
		}
		b.reserved += n
		b.runs++
	}
	b.report()
	return true
}

// Release gives a finished job's reservation back.
func (b *Budget) Release(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n == 0 {
		b.blind--
	} else {
		b.reserved -= n
		b.runs--
	}
	b.report()
}

// SoftLimit wires the soft memory limit. While jobs with predictions run,
// and none without, it is base + the fold's table and log + the
// reservations + half the reservations as headroom (cut so as not to
// pass the budget) + ingest's in-flight bytes rounded up to a step;
// NoLimit otherwise. set receives it each time it changes: when a job
// starts or ends, and when ingest's in-flight bytes pass what it covers
// or a step of bytes has been folded or held since it was last reported.
func (b *Budget) SoftLimit(base int64, set func(int64)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.base, b.set = base, set
}

// report recomputes the soft limit and hands it to set. Callers hold b.mu.
func (b *Budget) report() {
	if b.set == nil {
		return
	}
	soft := int64(NoLimit)
	if b.runs > 0 && b.blind == 0 {
		step := b.step()
		b.covered = (b.inflight + step - 1) / step * step
		b.moved = 0
		soft = b.base + b.fold + b.log + b.reserved + min(b.reserved/2, max(0, b.limit-b.reserved)) + b.covered
	}
	if soft != b.soft {
		b.soft = soft
		b.set(soft)
	}
}

// Snapshot is the budget's state, in bytes.
type Snapshot struct {
	Budget, Inflight, Fold, Log, Reserved int64
	SoftLimit                             int64 // 0: none (no predicted job runs, one without a prediction does, or the limit is not wired)
}

// Snapshot returns the current state.
func (b *Budget) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{Budget: b.limit, Inflight: b.inflight, Fold: b.fold, Log: b.log, Reserved: b.reserved}
	if b.set != nil && b.soft != NoLimit {
		s.SoftLimit = b.soft
	}
	return s
}
