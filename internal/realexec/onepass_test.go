package realexec_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
)

// emitGate observes a job from inside its query instances: the first
// Map call on the last chunk's first record blocks until some reducer
// has emitted output, or until bound passes, and records which came
// first.
type emitGate struct {
	last    []byte // the last chunk's first record
	bound   time.Duration
	emitted chan struct{}
	signal  sync.Once
	hold    sync.Once
	early   bool // a reducer emitted before the gated Map returned
}

func (g *emitGate) Emit(key, value []byte) { g.signal.Do(func() { close(g.emitted) }) }

// watch returns out with every Emit also reported to the gate.
func (g *emitGate) watch(out mr.OutputWriter) mr.OutputWriter { return teeWriter{out, g} }

type teeWriter struct{ a, b mr.OutputWriter }

func (w teeWriter) Emit(key, value []byte) { w.a.Emit(key, value); w.b.Emit(key, value) }

// gatedSessions is sessionization whose Map waits at the gate and whose
// every emission path reports to it; the embedded query supplies every
// optional interface the platforms look for.
type gatedSessions struct {
	*queries.Sessionization
	g *emitGate
}

func (q *gatedSessions) Map(record []byte, emit func(k, v []byte)) {
	if bytes.Equal(bytes.TrimSuffix(record, []byte("\n")), q.g.last) {
		q.g.hold.Do(func() {
			select {
			case <-q.g.emitted:
				q.g.early = true
			case <-time.After(q.g.bound):
			}
		})
	}
	q.Sessionization.Map(record, emit)
}

func (q *gatedSessions) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	q.Sessionization.Reduce(key, values, q.g.watch(out))
}

func (q *gatedSessions) TryEmit(key, state []byte, out mr.OutputWriter) []byte {
	return q.Sessionization.TryEmit(key, state, q.g.watch(out))
}

func (q *gatedSessions) Finalize(key, state []byte, out mr.OutputWriter) {
	q.Sessionization.Finalize(key, state, q.g.watch(out))
}

func (q *gatedSessions) OnEvict(key, state []byte, out mr.OutputWriter) bool {
	return q.Sessionization.OnEvict(key, state, q.g.watch(out))
}

// runGated runs watermarked sessionization on the golden input with the
// gate on the last chunk, and reports whether a reducer emitted before
// the last map attempt returned. Answers must equal the ungated run's.
func runGated(t *testing.T, pl engine.Platform, workers int, bound time.Duration) bool {
	t.Helper()
	job := goldenJob(t, pl)
	job.Hints = mr.Hints{Km: 1.15, DistinctKeys: 400}
	newSess := func() *queries.Sessionization { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	data := job.Input.ChunkBytes(job.Input.NumChunks() - 1)
	first, _, _ := bytes.Cut(data, []byte("\n"))
	g := &emitGate{last: first, bound: bound, emitted: make(chan struct{})}
	rep := runReal(t, job, func() mr.Query { return &gatedSessions{newSess(), g} }, workers)
	clean := runReal(t, job, func() mr.Query { return newSess() }, workers)
	requireSameAnswers(t, clean, rep, "gated")
	return g.early
}

// TestReducersEmitBeforeLastMap is the one-pass property on the wall
// clock: reducers consume map output as it is published, so an INC-hash
// or DINC-hash reducer emits sessions while the last map task is still
// running — its Map blocks until then. Sort-merge, whose reducers emit
// only from the final merge, emits nothing until the last map has
// returned: the paper's contrast.
func TestReducersEmitBeforeLastMap(t *testing.T) {
	for _, pl := range []engine.Platform{engine.INCHash, engine.DINCHash} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d", pl, workers), func(t *testing.T) {
				if !runGated(t, pl, workers, 10*time.Second) {
					t.Fatal("no reducer emitted before the last map task returned")
				}
			})
		}
	}
	t.Run(engine.SortMerge.String(), func(t *testing.T) {
		if runGated(t, engine.SortMerge, 4, 200*time.Millisecond) {
			t.Fatal("sort-merge emitted before the last map task returned")
		}
	})
}
