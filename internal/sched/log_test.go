package sched

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/seglog"
)

// appendRecord appends one record of rows — any JSON object, so a test
// can plant a row that does not decode — to the job log in dir, as a
// transition would, for the next Open to replay. No scheduler may have
// dir open.
func appendRecord(t *testing.T, dir string, rows any) {
	t.Helper()
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	log, _, err := seglog.Recover(&layout, seglog.Options{Dir: dir, SealBytes: sealBytes, Retain: retainImages}, seglog.Replay{
		Image: func(b []byte) (seglog.ImageRef, func() error, error) {
			ref, _, err := decodeImage(b)
			return ref, func() error { return nil }, err
		},
		Record: func(p []byte) (int64, func(), error) {
			c := frame.NewCursor(p)
			return int64(c.Uvarint()), func() {}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := log.Append(func(dst []byte, id int64) []byte {
		return frame.AppendBytes(frame.AppendUvarint(dst, uint64(id)), data)
	}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCronFireAfterDrainDoesNothing: a timer that fired before Drain
// took s.mu runs cronFire once Drain lets go of it. That fire must not
// mint a run — Drain waits only for work already running — nor re-arm
// the schedule Drain disarmed.
func TestCronFireAfterDrainDoesNothing(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec("acme")
	spec.Cron = "@every 1h"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.cronFire(j.ID)
	runs, err := s.Runs(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	armed := len(s.timers)
	s.mu.Unlock()
	if len(runs) != 0 || armed != 0 {
		t.Fatalf("a fire after Drain minted %d runs and left %d timers armed, want none", len(runs), armed)
	}
}

// TestRunsAndGetReturnCopies: what Runs and Get return belongs to the
// caller; changing it, down to a Report's slices, changes nothing the
// scheduler serves next.
func TestRunsAndGetReturnCopies(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: tracedExec{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	wantJob, _ := s.Get(j.ID)
	wantRuns, _ := s.Runs(j.ID)
	wantRuns = []*Run{wantRuns[0].clone()}

	got, _ := s.Get(j.ID)
	got.State, got.Spec.Org = "x", "x"
	for _, id := range []string{j.ID, wantJob.ID} {
		if c, err := s.Cancel(id); err != nil {
			t.Fatal(err)
		} else {
			c.State = "x" // Cancel of a terminal job returns its row too
		}
	}
	runs, _ := s.Runs(j.ID)
	runs[0].State = "x"
	runs[0].Report.OutputRecords = -1
	runs[0].Report.ShuffleBytesByNode[0] = -1

	if again, _ := s.Get(j.ID); !reflect.DeepEqual(again, wantJob) {
		t.Fatalf("Get after a caller changed its copy: %+v, want %+v", again, wantJob)
	}
	if again, _ := s.Runs(j.ID); !reflect.DeepEqual(again, wantRuns) {
		t.Fatalf("Runs after a caller changed its copy: %+v, want %+v", again[0], wantRuns[0])
	}
}

// TestClosedSchedulerRefuses: after Close, transitions refuse with
// ErrClosed (the job log is closed under them), reads still serve, and
// a second Close is a no-op.
func TestClosedSchedulerRefuses(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub()})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("acme")
	spec.Cron = "@every 1h"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(testSpec("acme")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Cancel(j.ID); !errors.Is(err, ErrClosed) {
		t.Errorf("Cancel after Close: %v, want ErrClosed", err)
	}
	if err := s.SetLimits("acme", Limits{}); !errors.Is(err, ErrClosed) {
		t.Errorf("SetLimits after Close: %v, want ErrClosed", err)
	}
	if got, err := s.Get(j.ID); err != nil || got.State != StateActive {
		t.Errorf("Get after Close: %+v, %v", got, err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestWedgedLogRefusesAndReports: after one failed append every later
// transition fails with that same error, memory keeps nothing the log
// does not, and Metrics reports the wedge.
func TestWedgedLogRefusesAndReports(t *testing.T) {
	boom := errors.New("disk on fire")
	armed := false
	s, err := Open(Config{Dir: t.TempDir(), Exec: newStub(), Fail: &seglog.Failpoints{
		BeforeSync: func(int64) error {
			if armed {
				return boom
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abort()
	if err := s.SetLimits("acme", Limits{MaxConcurrent: 1, MaxQueued: 4}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if _, err := s.Submit(testSpec("acme")); !errors.Is(err, boom) {
		t.Fatalf("failed admit: %v, want the injected error", err)
	}
	armed = false
	if err := s.SetLimits("acme", Limits{MaxConcurrent: 2, MaxQueued: 4}); !errors.Is(err, boom) {
		t.Fatalf("set limits on a wedged log: %v, want the wedging error", err)
	}
	m := s.Metrics()
	if m.Store.Wedged == "" || m.Jobs != 0 || m.Queued != 0 || s.Limits("acme").MaxConcurrent != 1 {
		t.Fatalf("wedged scheduler: %+v, limits %+v; want the wedge reported and nothing unlogged kept", m, s.Limits("acme"))
	}
}

// The crash sweep. One deterministic workload drives every kind of
// transition — set limits, admit, start, finish, cancel of a queued
// and of a running job, cron fire, a restart whose recovery repairs a
// lost run — through a job log small enough to seal several segments
// and write five images. A never-crashed run of it records the state
// before each record (the BeforeSync hook fires while the appending
// transition holds s.mu, before memory takes the record). Each crash
// point then reruns the workload in a fresh directory with one seglog
// failpoint armed: a torn append of zero bytes (the cut at a record
// boundary) or of part of the frame, a crash between write and fsync,
// before a seal, or half-way through an image. Recovery of what the
// crash left must equal the oracle after exactly the records whose
// frames are whole on disk, a count read from the bytes and checked
// against what the failpoint implies; the recovered scheduler must then
// take new work durably. Last, the final segment of a run killed before
// its last fsync is cut at every frame boundary and inside every frame.

// sweepExec blocks each run until the sweep releases it, its context
// ends, or the process it belongs to dies.
type sweepExec struct {
	release chan struct{}
	stop    chan struct{}
}

func newSweepExec() *sweepExec {
	return &sweepExec{release: make(chan struct{}), stop: make(chan struct{})}
}

func (e *sweepExec) Run(ctx context.Context, spec JobSpec, _ *ResumeInfo) (*engine.Report, error) {
	select {
	case <-e.release:
		return &engine.Report{Query: spec.Query, Platform: spec.Platform, OutputRecords: 1, ShuffleBytesByNode: []int64{7, 9}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.stop:
		return nil, errors.New("sweep: the process died")
	}
}

// sweepState is what recovery must restore: the rows and the id
// counters.
type sweepState struct {
	Jobs   map[string]Job
	Runs   map[string][]Run
	Limits map[string]Limits
	JobSeq uint64
	RunSeq map[string]uint64
}

// stateOf copies s's persisted state. Callers hold s.mu.
func stateOf(s *Scheduler) sweepState {
	st := sweepState{Jobs: map[string]Job{}, Runs: map[string][]Run{}, Limits: maps.Clone(s.limits),
		JobSeq: s.jobSeq, RunSeq: maps.Clone(s.runSeq)}
	for id, j := range s.jobs {
		st.Jobs[id] = *j
	}
	for id, rs := range s.runs {
		for _, r := range rs {
			st.Runs[id] = append(st.Runs[id], *r.clone())
		}
	}
	return st
}

// sweepRun is one run of the workload on one directory.
type sweepRun struct {
	t    *testing.T
	cfg  Config
	exec *sweepExec
	s    *Scheduler
}

func sweepConfig(dir string, fp *seglog.Failpoints) Config {
	return Config{Dir: dir, Now: func() time.Time { return time.Unix(1e9, 0) }, Fail: fp,
		DefaultLimits: Limits{MaxConcurrent: 1, MaxQueued: 8}, sealBytes: 1500, compactEvery: 4}
}

// await waits until the log's last record is last, or returns the
// failure the log is wedged on.
func (w *sweepRun) await(last int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		w.s.mu.Lock()
		at, err := w.s.log.Stats().NextID-1, w.s.log.Err()
		w.s.mu.Unlock()
		switch {
		case err != nil:
			return err
		case at == last:
			return nil
		case at > last, time.Now().After(deadline):
			w.t.Fatalf("workload at record %d, want %d", at, last)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func sweepSubmit(name, cron string) func(*sweepRun) error {
	return func(w *sweepRun) error {
		spec := testSpec("acme")
		spec.Name, spec.Cron = name, cron
		_, err := w.s.Submit(spec)
		return err
	}
}

func sweepCancel(job uint64) func(*sweepRun) error {
	return func(w *sweepRun) error { _, err := w.s.Cancel(jobID(job)); return err }
}

func sweepRelease(w *sweepRun) error {
	select {
	case w.exec.release <- struct{}{}:
		return nil
	case <-time.After(10 * time.Second):
		return errors.New("sweep: no run is executing")
	}
}

// sweepRestart kills the scheduler and recovers the directory the way
// Open does, exposing the recovered scheduler before start appends
// the repair.
func sweepRestart(w *sweepRun) error {
	w.s.Abort()
	close(w.exec.stop)
	w.exec = newSweepExec()
	w.cfg.Exec = w.exec
	s, err := load(w.cfg)
	if err != nil {
		return err
	}
	w.s = s
	return s.start()
}

// sweepSteps is the workload; last is the log's last record id once
// the step is done.
var sweepSteps = []struct {
	name string
	last int64
	do   func(*sweepRun) error
}{
	{"set limits", 1, func(w *sweepRun) error { return w.s.SetLimits("acme", Limits{MaxConcurrent: 1, MaxQueued: 8}) }},
	{"admit and start a", 3, sweepSubmit("a", "")},
	{"admit b", 4, sweepSubmit("b", "")},
	{"admit c", 5, sweepSubmit("c", "")},
	{"cancel queued c", 6, sweepCancel(3)},
	{"finish a, start b", 8, sweepRelease},
	{"admit recurring d", 9, sweepSubmit("d", "@every 1h")},
	{"cron fire of d", 10, func(w *sweepRun) error { w.s.cronFire(jobID(4)); return nil }},
	{"cancel running b, start d's run", 13, sweepCancel(2)},
	{"finish d's run", 14, sweepRelease},
	{"set another org's limits", 15, func(w *sweepRun) error { return w.s.SetLimits("other", Limits{MaxConcurrent: 3, MaxQueued: 3}) }},
	{"admit and start e", 17, sweepSubmit("e", "")},
	{"restart: repair and start e", 19, sweepRestart},
	{"finish e's resumed run", 20, sweepRelease},
}

// newSweep prepares a run of the workload on dir with fp armed.
func newSweep(t *testing.T, dir string, fp *seglog.Failpoints) *sweepRun {
	w := &sweepRun{t: t, cfg: sweepConfig(dir, fp), exec: newSweepExec()}
	w.cfg.Exec = w.exec
	return w
}

// run drives the workload until it ends or a step fails (the crash),
// calling each after every step, and leaves the scheduler open.
func (w *sweepRun) run(each func()) *sweepRun {
	s, err := Open(w.cfg)
	if err != nil {
		w.t.Fatal(err)
	}
	w.s = s
	for _, st := range sweepSteps {
		if st.do(w) != nil || w.await(st.last) != nil {
			break
		}
		if each != nil {
			each()
		}
	}
	return w
}

// kill ends a run's scheduler as kill -9 would, and lets every run it
// left blocked return.
func (w *sweepRun) kill() {
	w.s.Abort()
	close(w.exec.stop)
}

// sweepOracle runs the workload without a crash and returns the state
// after each record, the record each seal followed and the images.
func sweepOracle(t *testing.T) (states []sweepState, sealedAfter map[int64]int64, images []int64, dir string) {
	t.Helper()
	dir = t.TempDir()
	byID := map[int64]sweepState{}
	sealedAfter = map[int64]int64{}
	at := func(id int64, st sweepState) {
		if prev, ok := byID[id]; ok && !reflect.DeepEqual(prev, st) {
			t.Errorf("the workload's own restart recovered\n%+v\nafter record %d, want\n%+v", st, id, prev)
		}
		byID[id] = st
	}
	var w *sweepRun
	w = newSweep(t, dir, &seglog.Failpoints{
		BeforeSync: func(id int64) error { at(id-1, stateOf(w.s)); return nil },
		BeforeSeal: func(seg int64) error { sealedAfter[seg] = w.s.log.Stats().NextID - 1; return nil },
		TornImage:  func(id int64) int { images = append(images, id); return -1 },
	})
	w.run(func() {
		w.s.mu.Lock()
		if w.s.log.Stats().NextID-1 == 17 { // the state the restart must recover
			at(17, stateOf(w.s))
		}
		w.s.mu.Unlock()
	})
	w.s.mu.Lock()
	last := w.s.log.Stats().NextID - 1
	at(last, stateOf(w.s))
	w.s.mu.Unlock()
	w.kill()
	if want := sweepSteps[len(sweepSteps)-1].last; last != want {
		t.Fatalf("oracle run ended at record %d, want %d", last, want)
	}
	for id := int64(0); id <= last; id++ {
		st, ok := byID[id]
		if !ok {
			t.Fatalf("oracle has no state after record %d", id)
		}
		states = append(states, st)
	}
	// The oracle shares apply with recovery, so its counters are held
	// to what the workload minted: jobs j000001.., each org's run ids
	// 1..n once each.
	final := states[last]
	ids := map[string][]uint64{}
	for _, rs := range final.Runs {
		for _, r := range rs {
			ids[r.Org] = append(ids[r.Org], r.ID)
		}
	}
	for org, got := range ids {
		slices.Sort(got)
		for i, id := range got {
			if id != uint64(i+1) || final.RunSeq[org] != uint64(len(got)) {
				t.Fatalf("oracle run ids of %s: %v with counter %d, want 1..%d", org, got, final.RunSeq[org], len(got))
			}
		}
	}
	if final.JobSeq != uint64(len(final.Jobs)) {
		t.Fatalf("oracle job counter %d for %d jobs", final.JobSeq, len(final.Jobs))
	}
	if len(sealedAfter) < 2 || len(images) < 2 {
		t.Fatalf("the workload sealed %d segments and wrote %d images, want at least 2 of each", len(sealedAfter), len(images))
	}
	return states, sealedAfter, images, dir
}

// lastWholeRecord is the id of the last record whose frame is whole in
// dir's segments: what a recovery of dir must replay up to.
func lastWholeRecord(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := layout.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for _, idx := range segs {
		b, err := os.ReadFile(filepath.Join(dir, layout.SegName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		frame.ScanTail(b, func(p []byte) {
			id, _, err := decodeRecord(p)
			if err != nil {
				t.Fatalf("segment %d: %v", idx, err)
			}
			last = id
		})
	}
	return last
}

// sweepPoint is one crash: the failpoints that cause it, the record
// whose frame is the last one whole on disk afterwards, and what
// recovery reports having repaired.
type sweepPoint struct {
	name      string
	fail      func(fired *bool) *seglog.Failpoints
	survivors int64
	torn      int64 // TornTailsTruncated
	discarded int64 // SnapshotsDiscarded
}

func sweepPoints(records int64, sealedAfter map[int64]int64, images []int64) []sweepPoint {
	var pts []sweepPoint
	for k := int64(1); k <= records; k++ {
		tear := func(n int) func(*bool) *seglog.Failpoints {
			return func(fired *bool) *seglog.Failpoints {
				return &seglog.Failpoints{TornAppend: func(id int64) int {
					if id != k {
						return -1
					}
					*fired = true
					return n
				}}
			}
		}
		pts = append(pts,
			sweepPoint{name: fmt.Sprintf("boundary@%02d", k), fail: tear(0), survivors: k - 1},
			sweepPoint{name: fmt.Sprintf("midframe@%02d", k), fail: tear(1 + int(k*7)%40), survivors: k - 1, torn: 1},
			sweepPoint{name: fmt.Sprintf("beforesync@%02d", k), survivors: k, fail: func(fired *bool) *seglog.Failpoints {
				return &seglog.Failpoints{BeforeSync: func(id int64) error {
					if id != k {
						return nil
					}
					*fired = true
					return seglog.ErrCrash
				}}
			}})
	}
	for _, seg := range slices.Sorted(maps.Keys(sealedAfter)) {
		pts = append(pts, sweepPoint{name: fmt.Sprintf("beforeseal@seg%d", seg), survivors: sealedAfter[seg],
			fail: func(fired *bool) *seglog.Failpoints {
				return &seglog.Failpoints{BeforeSeal: func(s int64) error {
					if s != seg {
						return nil
					}
					*fired = true
					return seglog.ErrCrash
				}}
			}})
	}
	for _, img := range images {
		pts = append(pts, sweepPoint{name: fmt.Sprintf("tornimage@%02d", img), survivors: img, discarded: 1,
			fail: func(fired *bool) *seglog.Failpoints {
				return &seglog.Failpoints{TornImage: func(id int64) int {
					if id != img {
						return -1
					}
					*fired = true
					return 11
				}}
			}})
	}
	return pts
}

// resumeAfterCrash recovers dir and holds the state to the oracle after
// record survivors and the repairs to torn tails and discarded images;
// the recovered scheduler must then take new work durably.
func resumeAfterCrash(t *testing.T, dir string, states []sweepState, survivors, torn, discarded int64) {
	t.Helper()
	cfg := sweepConfig(dir, nil)
	s, err := load(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	got, rec := stateOf(s), s.Recovery.Store
	s.log.Close()
	if want := states[survivors]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered\n%+v\nwant the oracle after record %d\n%+v", got, survivors, want)
	}
	if rec.TornTailsTruncated != torn || rec.SnapshotsDiscarded != discarded {
		t.Fatalf("recovery %+v, want %d torn tails and %d images discarded", rec, torn, discarded)
	}

	// The recovered scheduler repairs what the crash cut short,
	// takes new work, and keeps it across a clean restart.
	cfg.Exec = newStub()
	s, err = Open(cfg)
	if err != nil {
		t.Fatalf("open after recovery: %v", err)
	}
	j, err := s.Submit(testSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	for m := s.Metrics(); m.Running+m.Queued > 0; m = s.Metrics() {
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	want := stateOf(s)
	s.mu.Unlock()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = load(cfg); err != nil {
		t.Fatal(err)
	}
	defer s.log.Close()
	if got := stateOf(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("a clean restart after recovery lost work:\n got %+v\nwant %+v", got, want)
	}
}

// finalCut is one cut of the oracle's final segment at off, at a frame
// boundary or inside a frame, and the last record whose frame is whole
// before it.
type finalCut struct {
	off      int64
	midframe bool
	whole    int64
}

// finalCuts returns every frame boundary of the segment b plus two
// seeded random offsets inside each frame.
func finalCuts(t *testing.T, b []byte) []finalCut {
	t.Helper()
	var bounds []int64
	var first int64
	for off := int64(0); ; {
		bounds = append(bounds, off)
		if off == int64(len(b)) {
			break
		}
		p, n, err := frame.Next(b[off:])
		if err != nil {
			t.Fatalf("stepping frames at offset %d: %v", off, err)
		}
		if off == 0 {
			if first, _, err = decodeRecord(p); err != nil {
				t.Fatal(err)
			}
		}
		off += int64(n)
	}
	if len(bounds) < 3 {
		t.Fatalf("the final segment holds %d frames, want at least 2", len(bounds)-1)
	}
	rng := rand.New(rand.NewSource(42))
	var cuts []finalCut
	for i, b := range bounds {
		whole := first - 1 + int64(i)
		cuts = append(cuts, finalCut{off: b, whole: whole})
		if i+1 < len(bounds) {
			for range 2 {
				cuts = append(cuts, finalCut{off: b + 1 + rng.Int63n(bounds[i+1]-b-1), midframe: true, whole: whole})
			}
		}
	}
	return cuts
}

func TestCrashPointSweep(t *testing.T) {
	states, sealedAfter, images, _ := sweepOracle(t)
	pts := sweepPoints(int64(len(states)-1), sealedAfter, images)
	kinds := map[string]int{}
	for i, pt := range pts {
		kind, _, _ := strings.Cut(pt.name, "@")
		kinds[kind]++
		// -short keeps every fifth record's cuts and the first seal and
		// image crash.
		if testing.Short() && i%15 >= 3 && kinds[kind] > 1 {
			continue
		}
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			fired := false
			newSweep(t, dir, pt.fail(&fired)).run(nil).kill()
			if !fired {
				t.Fatal("the failpoint never fired")
			}
			if got := lastWholeRecord(t, dir); got != pt.survivors {
				t.Fatalf("records 1..%d are whole on disk, want 1..%d", got, pt.survivors)
			}
			resumeAfterCrash(t, dir, states, pt.survivors, pt.torn, pt.discarded)
		})
	}
	for _, kind := range []string{"boundary", "midframe", "beforesync", "beforeseal", "tornimage"} {
		if kinds[kind] == 0 {
			t.Errorf("no %s crash point", kind)
		}
	}

	// Cuts of the final segment of a run killed between the write and
	// the fsync of its last record, as a disk that loses the tail of the
	// file leaves it. The newest image stays whole past a cut of the
	// records it contains: recovery restores it and replays none of the
	// cut tail.
	crashDir, fired := t.TempDir(), false
	last := int64(len(states) - 1)
	i := slices.IndexFunc(pts, func(pt sweepPoint) bool { return pt.name == fmt.Sprintf("beforesync@%02d", last) })
	newSweep(t, crashDir, pts[i].fail(&fired)).run(nil).kill()
	if !fired {
		t.Fatal("the failpoint never fired")
	}
	segs, err := layout.Segments(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := layout.Images(crashDir)
	if err != nil || len(imgs) == 0 {
		t.Fatalf("the crashed run left images %v (%v)", imgs, err)
	}
	newest := imgs[len(imgs)-1]
	final := layout.SegName(segs[len(segs)-1])
	b, err := os.ReadFile(filepath.Join(crashDir, final))
	if err != nil {
		t.Fatal(err)
	}
	cuts := finalCuts(t, b)
	if cuts[0].whole >= newest {
		t.Fatalf("the newest image %d sits before every cut", newest)
	}
	for _, c := range cuts {
		name := fmt.Sprintf("trunc=%d", c.off)
		if c.midframe {
			name += "-midframe"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashDir, dir)
			if err := os.Truncate(filepath.Join(dir, final), c.off); err != nil {
				t.Fatal(err)
			}
			var torn int64
			if c.midframe && c.whole >= newest {
				torn = 1
			}
			resumeAfterCrash(t, dir, states, max(c.whole, newest), torn, 0)
		})
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashPointSweepSnapshotLoss extends the sweep across the image
// chain: with the newest image gone (as if torn away entirely),
// recovery falls back to the previous one, replays a longer suffix —
// the restart's repair among it — and still lands on the oracle.
func TestCrashPointSweepSnapshotLoss(t *testing.T) {
	states, _, _, dir := sweepOracle(t)
	cfg := sweepConfig(dir, nil)
	s, err := load(cfg)
	if err != nil {
		t.Fatal(err)
	}
	newest := s.Recovery.Store
	s.log.Close()

	imgs, err := layout.Images(dir)
	if err != nil || len(imgs) != retainImages {
		t.Fatalf("want %d retained images, have %v (%v)", retainImages, imgs, err)
	}
	if err := os.Remove(filepath.Join(dir, layout.ImgName(imgs[1]))); err != nil {
		t.Fatal(err)
	}
	if s, err = load(cfg); err != nil {
		t.Fatalf("recovery without the newest image: %v", err)
	}
	defer s.log.Close()
	if got, want := stateOf(s), states[len(states)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback recovery\n%+v\nwant\n%+v", got, want)
	}
	if got := s.Recovery.Store; got.RestoredTx != imgs[0] || got.RecoveryReadBytes <= newest.RecoveryReadBytes {
		t.Fatalf("fallback recovery %+v, want image %d restored and more than the %d bytes read behind image %d",
			got, imgs[0], newest.RecoveryReadBytes, imgs[1])
	}
}

// TestOnDiskFormatPinned holds every file the sweep's workload, one
// more set-limits record and a clean Close leave behind to a committed
// name and SHA-256: segments, images and the record and image codecs.
// The crash sweep cannot see the format drift, since it writes and
// reads with the same build.
func TestOnDiskFormatPinned(t *testing.T) {
	want := map[string]string{
		"jobs-00000006.seg":         "f2c62dd0f43bf9b930409101f99300449624d7f6275fa82f39f1e01d9a5811c8", // records 18–21
		"jobs-0000000000000020.img": "b47599477aa5b60da6d3477b75ce4104300c5c701b94480d5341654058602422",
		"jobs-0000000000000021.img": "6138457cf9aeadac7b018d6f32bd75e4fdcf3d2384a90d5bd1c6a37a3b515cb8", // written by Close
	}
	dir := t.TempDir()
	w := newSweep(t, dir, nil).run(nil)
	if err := w.s.SetLimits("acme", Limits{MaxConcurrent: 2, MaxQueued: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[e.Name()] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("on-disk format changed:\n got %v\nwant %v", got, want)
	}
}
