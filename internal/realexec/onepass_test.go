package realexec_test

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/realexec"
	"repro/internal/reference"
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

	// consume, when set, runs before every watermark advance: on the
	// wall clock only reducers advance it, once per slot, before they
	// consume the slot's output.
	consume func()
	maps    atomic.Int32 // query instances (map attempts) that reached Map
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
	g      *emitGate
	mapped bool
}

func (q *gatedSessions) Map(record []byte, emit func(k, v []byte)) {
	if !q.mapped {
		q.mapped = true
		q.g.maps.Add(1)
	}
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

func (q *gatedSessions) AdvanceWatermark(ts int64) {
	if q.g.consume != nil {
		q.g.consume()
	}
	q.Sessionization.AdvanceWatermark(ts)
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

func newSess() *queries.Sessionization {
	return queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
}

// query is the factory of the gate's sessionization instances.
func (g *emitGate) query() mr.Query { return &gatedSessions{Sessionization: newSess(), g: g} }

// runGated runs watermarked sessionization on the golden input with the
// gate on the last chunk, and reports whether a reducer emitted before
// the last map attempt returned. Answers must equal the ungated run's.
func runGated(t *testing.T, pl engine.Platform, workers int, bound time.Duration) bool {
	t.Helper()
	job := goldenJob(t, pl)
	job.Hints = mr.Hints{Km: 1.15, DistinctKeys: 400}
	data := job.Input.ChunkBytes(job.Input.NumChunks() - 1)
	first, _, _ := bytes.Cut(data, []byte("\n"))
	g := &emitGate{last: first, bound: bound, emitted: make(chan struct{})}
	rep := runReal(t, job, g.query, workers)
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

// residencyJob is runGated's job on 17 chunks and a 2-node cluster that
// keeps one map output per node in memory (SlotCache 1): the wall-clock
// backend holds at most 2 outputs resident.
func residencyJob(t *testing.T, pl engine.Platform) engine.JobSpec {
	job := goldenJob(t, pl)
	job.Input = testClicks(t, 96<<10, 6<<10)
	job.Cluster.Nodes, job.Cluster.SlotCache = 2, 1
	job.Hints = mr.Hints{Km: 1.15, DistinctKeys: 400}
	return job
}

// runAsync starts the job on the wall-clock backend with the gate's
// queries and four workers.
func runAsync(job engine.JobSpec, g *emitGate) <-chan error {
	done := make(chan error, 1)
	go func() {
		job.Cluster.Parallelism = 4
		rep, err := realexec.Run(job, g.query)
		if err == nil {
			want, _ := reference.RunWithWatermarks(newSess(), job.Input)
			var got, rows []string
			for _, kv := range rep.Outputs {
				got = append(got, clickOf(kv[0], kv[1]))
			}
			for _, o := range want {
				rows = append(rows, clickOf(o.Key, o.Value))
			}
			sort.Strings(got)
			sort.Strings(rows)
			if !slices.Equal(got, rows) {
				err = fmt.Errorf("%d sessionized clicks differ from the reference's %d", len(got), len(rows))
			}
		}
		done <- err
	}()
	return done
}

// clickOf is a sessionization output without its session number, which
// depends on how a platform bounds its session buffers: the user and
// the click must match the reference exactly.
func clickOf(user, value string) string {
	_, click, _ := strings.Cut(value, "\t")
	return user + "\t" + click
}

// TestMapsWaitForTheShuffle: map outputs stay resident only until every
// reducer has consumed them, and at most the residency cap of them at a
// time — SlotCache × Nodes, or the window the reducers are given if
// that is smaller — so while every reducer is held at its first consume
// no more than that many chunks reach Map. Once the reducers go on, the
// job answers as the reference does.
func TestMapsWaitForTheShuffle(t *testing.T) {
	caps := []struct{ slotCache, r, resident int }{
		{1, 2, 2},  // one output per node; the four reducers' window is 16
		{16, 1, 8}, // 32 outputs of page cache; the two reducers' window is 8
	}
	for _, pl := range []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			for _, c := range caps {
				job := residencyJob(t, pl)
				job.Cluster.SlotCache, job.Cluster.R = c.slotCache, c.r
				open := make(chan struct{})
				g := &emitGate{emitted: make(chan struct{}), consume: func() { <-open }}
				done := runAsync(job, g)
				time.Sleep(200 * time.Millisecond)
				if n := g.maps.Load(); n > int32(c.resident) {
					t.Errorf("SlotCache %d, %d reducers: %d of %d chunks reached Map while every reducer was held, want at most %d",
						c.slotCache, c.r*job.Cluster.Nodes, n, job.Input.NumChunks(), c.resident)
				}
				close(open)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestFailedReducerLiftsTheCap: reduce tasks that fail drop nothing, so
// the maps stop waiting on them and the job ends with their error
// instead of hanging.
func TestFailedReducerLiftsTheCap(t *testing.T) {
	g := &emitGate{emitted: make(chan struct{}), consume: func() { panic("reducer dies") }}
	select {
	case err := <-runAsync(residencyJob(t, engine.INCHash), g):
		if err == nil || !strings.Contains(err.Error(), "reducer dies") {
			t.Fatalf("job error = %v, want the reducers' failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the job hung after its reducers failed")
	}
}
