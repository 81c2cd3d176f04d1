package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/reference"
	"repro/internal/sched"
)

// buildJob turns the benchmark's spec into an engine job through the
// scheduler's own builder, so the library workload, the daemon workload
// and the probes cannot drift apart. Sort-merge runs with the paper's
// optimised merge factor.
func buildJob(spec sched.JobSpec) (onepass.Job, func() onepass.Query, error) {
	job, newQuery, err := sched.BuildJob(spec)
	if err != nil {
		return job, nil, err
	}
	if job.Platform == onepass.SortMerge {
		job.Cluster.MergeFactor = 16
	}
	return job, newQuery, nil
}

// stable strips what may differ between two runs of one job. On the
// DES only the host-dependent fields do, and virtual time must repeat
// exactly; on the real backend the measured times and the series
// sampled along them differ too.
func stable(rep *onepass.Report, real bool) *onepass.Report {
	s := *rep
	s.WallTime, s.Workers, s.Outputs = 0, 0, nil
	if real {
		s.RunningTime, s.MapFinishTime = 0, 0
		s.Spans, s.Samples, s.Progress = nil, nil, nil
		s.FetchRetries, s.SpeculativeWins = 0, 0
	}
	return &s
}

// sessionLines reduces sessionization outputs to what every platform
// must agree on: each click with its user, without the session number
// (bounded-buffer streaming renumbers sessions).
func sessionLines[T any](outs []T, kv func(T) (string, string)) []string {
	lines := make([]string, len(outs))
	for i, o := range outs {
		k, v := kv(o)
		_, click, _ := strings.Cut(v, "\t")
		lines[i] = k + "\x00" + click
	}
	sort.Strings(lines)
	return lines
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// jobMetrics fills the end-to-end metrics of a job workload.
func jobMetrics(res *result, setupS float64, durs sample, recordsPerJob int64) {
	var total float64
	for _, d := range durs {
		total += d
	}
	res.e2e.set("setup_s", setupS, "s")
	res.e2e.timing("op_p50_ms", 1e3*durs.q(0.5), "ms", len(durs))
	res.layer.timing("bench.op_tail_ms", 1e3*durs.tail(), "ms", len(durs))
	res.layer.set("bench.records_per_s", ratio(float64(recordsPerJob)*float64(len(durs)), total), "records/s")
}

// runJobSim runs the sort-merge sessionization job on the DES through
// the library, back to back in this process.
func runJobSim(cfg config, rec *recorder, res *result) error {
	var (
		job  onepass.Job
		newQ func() onepass.Query
		want []string
	)
	setupS, err := medianSetup(cfg.sz.setupReps, func(int) error {
		var err error
		job, newQ, err = buildJob(jobSpec(cfg.seed, "sm", "sim", cfg.sz))
		if err != nil {
			return err
		}
		outs, _ := reference.RunWithWatermarks(newQ(), job.Input)
		want = sessionLines(outs, func(o reference.Output) (string, string) { return o.Key, o.Value })
		return nil
	}, func() {})
	if err != nil {
		return err
	}

	// The warm-up job is also the one whose outputs are collected and
	// compared with the reference; collecting costs time, so the
	// measured jobs do not.
	check := job
	check.Query, check.CollectOutput = newQ(), true
	first, err := onepass.Run(check)
	res.op(1, 0)
	if err != nil {
		return err
	}
	got := sessionLines(first.Outputs, func(kv [2]string) (string, string) { return kv[0], kv[1] })
	res.check(equalLines(got, want), "job outputs (%d clicks) differ from the reference (%d clicks)", len(got), len(want))
	// The harness is the process under test here. Give the reference
	// answers back to the operating system, so that the memory reported
	// is the jobs' own.
	want, got, first.Outputs = nil, nil, nil
	debug.FreeOSMemory()
	peakRSS := watchRSS(syscall.Getpid())
	defer peakRSS()

	p0, _ := readProc(syscall.Getpid())
	var traced, untraced sample
	start := time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < cfg.seconds; n++ {
		var r *recorder
		if n%2 == 1 {
			r = rec
		}
		job.Query = newQ()
		var rep *onepass.Report
		var err error
		req := r.newReq()
		root := r.reserve("job", req)
		t0 := time.Now()
		d := r.time(root, "onepass.Run", req, func() { rep, err = onepass.Run(job) })
		r.finish(root, t0, time.Now())
		res.op(1, 0)
		if err != nil {
			return err
		}
		if r != nil {
			traced.add(d)
		} else {
			untraced.add(d)
		}
		diff := engine.ReportDiff(stable(first, false), stable(rep, false))
		res.check(diff == "", "job %d: Report field %s differs from the first job's", n+1, diff)
	}
	elapsed := time.Since(start).Seconds()
	p1, _ := readProc(syscall.Getpid())
	p1.peakRSSMB = peakRSS()

	durs := append(append(sample(nil), traced...), untraced...)
	jobMetrics(res, setupS, durs, first.MapInputRecords)
	procMetrics(res, p0, p1, elapsed, float64(first.MapInputRecords)*float64(len(durs)))
	res.layer.set("bench.trace_overhead_pct", overheadPct(traced, untraced), "%")
	return nil
}

// jobReply is the part of a job record the generator reads.
type jobReply struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// pollEvery is how often the client asks whether its job is done.
const pollEvery = 5 * time.Millisecond

// runSchedReal drives the daemon's job path with one closed-loop
// client: submit, poll until terminal, fetch the run history.
func runSchedReal(cfg config, rec *recorder, res *result) error {
	spec := jobSpec(cfg.seed, "inc-hash", "real", cfg.sz)
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	var (
		d    *daemon
		want []byte // the stable Report of a direct run, as JSON
	)
	bin := filepath.Join(cfg.benchDir, "out", "onepassd")
	setupS, err := medianSetup(cfg.sz.setupReps, func(rep int) error {
		if err := buildDaemon(cfg.benchDir, bin); err != nil {
			return err
		}
		job, newQ, err := buildJob(spec)
		if err != nil {
			return err
		}
		direct, err := onepass.RunReal(job, newQ, spec.Workers)
		if err != nil {
			return err
		}
		if want, err = json.Marshal(stable(direct, true)); err != nil {
			return err
		}
		d, err = startDaemon(bin, filepath.Join(cfg.runDir, fmt.Sprint("setup", rep)), ingestQuery, true)
		return err
	}, func() { d.stop(syscall.SIGKILL) })
	if err != nil {
		return err
	}
	defer d.stop(syscall.SIGKILL)

	conn := newConn()
	defer conn.CloseIdleConnections()
	var (
		traced, untraced sample
		submitLat, fetch sample
		errs             httpCounts
		failedRuns       int64
		recordsPerJob    int64
		p0               procUsage
		start            time.Time
	)
	// oneJob runs one submit → terminal → fetch cycle; a transport or
	// status error ends the cycle and counts as a failed operation.
	oneJob := func(r *recorder, measured bool) {
		req := r.newReq()
		root := r.reserve("job", req)
		t0 := time.Now()
		defer func() { r.finish(root, t0, time.Now()) }()

		var j jobReply
		var err error
		// failed counts the request that just returned err.
		failed := func() bool {
			if err != nil {
				errs.note(err)
				res.op(0, 1)
			}
			return err != nil
		}
		res.op(1, 0)
		dSubmit := r.time(root, "submit", req, func() {
			err = postJSON(conn, d.base+"/v1/jobs", body, 201, &j)
		})
		if failed() {
			return
		}
		var done time.Time
		r.time(root, "poll.wait", req, func() {
			for !terminal(j.State) && err == nil {
				time.Sleep(pollEvery)
				res.op(1, 0)
				err = getJSON(conn, d.base+"/v1/jobs/"+j.ID, &j)
			}
			done = time.Now()
		})
		if failed() {
			return
		}
		var runs []sched.Run
		res.op(1, 0)
		dFetch := r.time(root, "runs.fetch", req, func() {
			err = getJSON(conn, d.base+"/v1/jobs/"+j.ID+"/runs", &runs)
		})
		if failed() {
			return
		}
		if j.State != sched.StateDone || len(runs) != 1 || runs[0].Report == nil {
			failedRuns++
			res.check(false, "job %s ended %s with %d runs", j.ID, j.State, len(runs))
			return
		}
		got, err := json.Marshal(stable(runs[0].Report, true))
		res.check(err == nil && bytes.Equal(got, want),
			"job %s: persisted Report differs from a direct RunReal of the same spec", j.ID)
		recordsPerJob = runs[0].Report.MapInputRecords
		if !measured {
			return
		}
		submitLat.add(dSubmit)
		fetch.add(dFetch)
		if r != nil {
			traced.add(done.Sub(t0))
		} else {
			untraced.add(done.Sub(t0))
		}
	}

	oneJob(nil, false) // warm-up
	p0, _ = readProc(d.cmd.Process.Pid)
	start = time.Now()
	for n := 0; n < 2 || time.Since(start).Seconds() < cfg.seconds; n++ {
		var r *recorder
		if n%2 == 1 {
			r = rec
		}
		oneJob(r, true)
	}
	elapsed := time.Since(start).Seconds()
	p1, _ := readProc(d.cmd.Process.Pid)

	durs := append(append(sample(nil), traced...), untraced...)
	if len(durs) == 0 {
		return fmt.Errorf("no job completed: %v", res.problems)
	}
	jobMetrics(res, setupS, durs, recordsPerJob)
	res.layer.timing("sched.submit_ack_p50_ms", 1e3*submitLat.q(0.5), "ms", len(submitLat))
	res.layer.timing("sched.report_fetch_p50_ms", 1e3*fetch.q(0.5), "ms", len(fetch))
	// Only POST /v1/jobs sheds here, so every 429 is the scheduler's.
	res.layer.set("sched.shed", float64(errs.shed), "count")
	res.layer.set("sched.failed", float64(failedRuns), "count")
	res.layer.set("serve.shed_429", float64(errs.shed), "count")
	res.layer.set("serve.http_errors", float64(errs.other), "count")
	procMetrics(res, p0, p1, elapsed, float64(recordsPerJob)*float64(len(durs)))
	res.layer.set("bench.trace_overhead_pct", overheadPct(traced, untraced), "%")

	err = d.stop(syscall.SIGTERM)
	res.check(err == nil, "onepassd did not exit 0 on SIGTERM: %v\n%s", err, d.stderr.String())
	return nil
}

func terminal(state string) bool {
	return state == sched.StateDone || state == sched.StateFailed || state == sched.StateCanceled
}

// memDelta reports what fn allocated and how long the collector paused
// the process while it ran.
func memDelta(fn func()) (mallocs, bytes float64, pause time.Duration) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc), time.Duration(b.PauseTotalNs - a.PauseTotalNs)
}
