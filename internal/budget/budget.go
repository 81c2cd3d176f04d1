// Package budget is the daemon's one byte budget. Two kinds of holder
// draw on it: the ingester's accepted-but-unfolded batch bytes, and the
// predicted peak heap of every running job. Jobs never take the last
// quarter, so ingest always keeps that much of it. While jobs run it also
// derives the process's Go soft memory limit from what it admitted.
package budget

import (
	"math"
	"sync"
)

// NoLimit is the soft memory limit reported while no job runs: the
// Go runtime's own "no limit".
const NoLimit = math.MaxInt64

// Budget is safe for concurrent use.
type Budget struct {
	limit int64

	mu       sync.Mutex
	inflight int64 // ingest's accepted-but-unfolded bytes
	reserved int64 // the running jobs' predicted peaks
	runs     int   // running jobs with a prediction
	blind    int   // running jobs without one (Reserve(0))

	// Soft limit wiring (SoftLimit); set is nil until wired.
	base    int64
	held    func() int64
	set     func(int64)
	soft    int64 // last reported; NoLimit while no job runs
	covered int64 // in-flight bytes soft covers, a multiple of step
	folded  int64 // bytes given back since soft last read held()
}

// New returns a budget of limit bytes.
func New(limit int64) *Budget { return &Budget{limit: limit, soft: NoLimit} }

// jobShare is the most of the budget the jobs' reservations take from
// ingest: all but its last quarter.
func (b *Budget) jobShare() int64 { return b.limit - b.limit/4 }

// step is how far ingest's bytes move, in flight or folded, before the
// soft limit follows them: an eighth of the budget, so a run sees at
// most a few recomputations from ingest.
func (b *Budget) step() int64 { return max(1, b.limit/8) }

// Take admits n in-flight bytes if they fit beside ingest's other bytes
// and the jobs' reservations up to their share, and reports whether it
// did.
func (b *Budget) Take(n int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.inflight+min(b.reserved, b.jobShare())+n > b.limit {
		return false
	}
	b.inflight += n
	if b.soft != NoLimit && (b.inflight > b.covered || b.folded >= b.step()) {
		b.report()
	}
	return true
}

// Give returns n in-flight bytes, folded or dropped.
func (b *Budget) Give(n int64) {
	b.mu.Lock()
	b.inflight -= n
	b.folded += n
	b.mu.Unlock()
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
		if b.runs > 0 && (b.inflight+b.reserved+n > b.limit || b.reserved+n > b.jobShare()) {
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
// and none without, it is base + held() + the reservations + half the
// reservations as headroom (cut so as not to pass the budget) + ingest's
// in-flight bytes rounded up to a step; NoLimit otherwise. set receives
// it each time it changes: when a job starts or ends, and when ingest's
// bytes pass what it covers or a step of them has been folded since
// held() was last read. held reports resident bytes the budget does not
// count (the ingester's fold state).
func (b *Budget) SoftLimit(base int64, held func() int64, set func(int64)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.base, b.held, b.set = base, held, set
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
		b.folded = 0
		soft = b.base + b.held() + b.reserved + min(b.reserved/2, max(0, b.limit-b.reserved)) + b.covered
	}
	if soft != b.soft {
		b.soft = soft
		b.set(soft)
	}
}

// Snapshot is the budget's state, in bytes.
type Snapshot struct {
	Budget, Inflight, Reserved int64
	SoftLimit                  int64 // 0: none (no predicted job runs, one without a prediction does, or the limit is not wired)
}

// Snapshot returns the current state.
func (b *Budget) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{Budget: b.limit, Inflight: b.inflight, Reserved: b.reserved}
	if b.set != nil && b.soft != NoLimit {
		s.SoftLimit = b.soft
	}
	return s
}
