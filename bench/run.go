package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Workload names, fixed by BENCHMARK.json.
const (
	wIngestSat = "ingest-sat"
	wReadMix   = "ingest-read-mix"
	wJobSim    = "job-sim-sm"
	wSchedReal = "sched-real-inc"
)

var workloadNames = []string{wIngestSat, wReadMix, wJobSim, wSchedReal}

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	benchDir string // the benchmark's module directory
	runDir   string // scratch space of this run, removed afterwards
}

// result is what a run reports.
type result struct {
	attempted, failed int64
	problems          []string // failed correctness checks
	e2e, layer        metrics
}

// op counts n attempted operations of which bad failed.
func (r *result) op(n, bad int64) {
	r.attempted += n
	r.failed += bad
}

// check counts one correctness check; a failed one is an operation
// that failed and makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// traceSlice is how long a traced run keeps span recording on, then
// off: the two halves of the window interleave, so drift in the
// daemon's state hits both alike and their difference is the overhead.
const traceSlice = 500 * time.Millisecond

// window is the measured interval of a run; operations are attributed
// to it by the time they were sent (or due).
type window struct {
	start, end time.Time
	rec        *recorder // nil on an untraced run
}

func newWindow(cfg config, rec *recorder) window {
	warm := time.Duration(cfg.seconds * float64(time.Second) / 8)
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	start := time.Now().Add(warm)
	return window{start: start, end: start.Add(time.Duration(cfg.seconds * float64(time.Second))), rec: rec}
}

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// recorderAt returns the recorder if t falls in a traced slice.
func (w window) recorderAt(t time.Time) *recorder {
	if w.rec == nil || !w.contains(t) || int(t.Sub(w.start)/traceSlice)%2 == 0 {
		return nil
	}
	return w.rec
}

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// medianSetup performs the set-up reps times and returns the median
// duration; all but the last are discarded again, so the run continues
// on the state the last one built.
func medianSetup(reps int, setup func(rep int) error, discard func()) (float64, error) {
	var durs sample
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := setup(i); err != nil {
			return 0, err
		}
		durs.add(time.Since(start))
		if i < reps-1 {
			discard()
		}
	}
	return durs.q(0.5), nil
}

// overheadPct compares the primary operation's median in traced and
// untraced slices.
func overheadPct(traced, untraced sample) float64 {
	return 100 * ratio(traced.q(0.5)-untraced.q(0.5), untraced.q(0.5))
}

// run executes one workload and, on a traced run, the layer probes.
func run(cfg config) (*result, error) {
	cfg.runDir = filepath.Join(cfg.benchDir, "out", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.runDir)

	res := &result{e2e: metrics{}, layer: zeroLayerMetrics()}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(cfg.workload)
	}
	var err error
	switch cfg.workload {
	case wIngestSat:
		err = runIngestSat(cfg, rec, res)
	case wReadMix:
		err = runReadMix(cfg, rec, res)
	case wJobSim:
		err = runJobSim(cfg, rec, res)
	case wSchedReal:
		err = runSchedReal(cfg, rec, res)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	res.layer.set("bench.failed_share", ratio(float64(res.failed), float64(res.attempted)), "ratio")
	if cfg.trace {
		if err := runProbes(cfg, rec, res); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.benchDir, "out", cfg.workload+".trace.json")
		if err := rec.write(path, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}
