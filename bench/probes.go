package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/bytestore"
	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/hashfam"
	"repro/internal/ingest"
	"repro/internal/kvenc"
	"repro/internal/sched"
	"repro/internal/serve"
)

// prober times the layers' public functions in this process, one span
// per call, on inputs cut from the run's seed. The probes are the same
// on every workload; which workload each one explains is in the
// README's interaction table.
type prober struct {
	cfg  config
	rec  *recorder
	root int64
	res  *result
}

// runProbes fills the probe half of the per-layer metrics.
func runProbes(cfg config, rec *recorder, res *result) error {
	p := &prober{cfg: cfg, rec: rec, res: res}
	p.root = rec.reserve("layer.probes", 0)
	start := time.Now()
	defer func() { rec.finish(p.root, start, time.Now()) }()
	p.kernels()
	if err := p.ingest(); err != nil {
		return fmt.Errorf("ingest probes: %w", err)
	}
	incS, err := p.jobs()
	if err != nil {
		return fmt.Errorf("job probes: %w", err)
	}
	if err := p.sched(incS); err != nil {
		return fmt.Errorf("sched probes: %w", err)
	}
	return nil
}

// calls times n calls of fn, each in its own span.
func (p *prober) calls(name string, n int, fn func(i int)) sample {
	var durs sample
	for i := 0; i < n; i++ {
		durs.add(p.rec.time(p.root, name, 0, func() { fn(i) }))
	}
	return durs
}

// mbPerS times iters calls of fn in one span and reports the rate at
// which they consumed bytesPerIter.
func (p *prober) mbPerS(name string, bytesPerIter, iters int, fn func()) float64 {
	d := p.rec.time(p.root, name, 0, func() {
		for i := 0; i < iters; i++ {
			fn()
		}
	})
	return float64(bytesPerIter) * float64(iters) / 1e6 / d.Seconds()
}

// nsPerCall is mbPerS for calls too short to time one by one.
func (p *prober) nsPerCall(name string, iters int, fn func()) float64 {
	d := p.rec.time(p.root, name, 0, func() {
		for i := 0; i < iters; i++ {
			fn()
		}
	})
	return float64(d.Nanoseconds()) / float64(iters)
}

// kernels times the byte-level foundations.
func (p *prober) kernels() {
	l := p.res.layer
	batch := clickPool(p.cfg.seed, 1000, 1)[0]
	for _, c := range []struct {
		tag     string
		payload []byte
		iters   int
	}{{"4k", batch, 200_000}, {"64k", make([]byte, 64<<10), 20_000}} {
		dst := make([]byte, 0, len(c.payload)+int(frame.Overhead(len(c.payload))))
		l.set("frame.append_"+c.tag+"_mb_per_s", p.mbPerS("frame.Append", len(c.payload), c.iters, func() {
			dst = frame.Append(dst[:0], c.payload)
		}), "MB/s")
		ok := true
		l.set("frame.verify_"+c.tag+"_mb_per_s", p.mbPerS("frame.Next", len(c.payload), c.iters, func() {
			_, _, err := frame.Next(dst)
			ok = ok && err == nil
		}), "MB/s")
		p.res.check(ok, "frame.Next rejected a frame frame.Append wrote")
	}
	l.set("bytestore.pool_getput_ns", p.nsPerCall("bytestore.Get+Put", 2_000_000, func() {
		bytestore.Put(bytestore.Get(64 << 10))
	}), "ns")
	hash := hashfam.NewFamily(1).Fn(0)
	key := []byte("u0012345")
	var sink uint64
	l.set("hashfam.sum64_ns", p.nsPerCall("hashfam.Sum64", 20_000_000, func() {
		sink += hash.Sum64(key)
	}), "ns")
	_ = sink
}

// ingest times the events and stats paths on an Ingester opened the
// way the daemon opens its own, over the read-mix user population.
func (p *prober) ingest() error {
	l := p.res.layer
	pool := clickPool(p.cfg.seed, 20_000, min(p.cfg.sz.poolBatches, 2048))
	factory, validate, err := ingest.StandardQuery(ingestQuery)
	if err != nil {
		return err
	}
	ing, err := ingest.Open(ingest.Config{
		Dir: filepath.Join(p.cfg.runDir, "probe-wal"), QueryName: ingestQuery, NewQuery: factory, Validate: validate,
		SealBytes: 64 << 20, CheckpointEvery: 256, MaxInflightBytes: 64 << 20,
	})
	if err != nil {
		return err
	}
	defer ing.Drain(context.Background())
	h := serve.NewHandler(ing, nil)
	serveOK := func(method, target string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, target, bytes.NewReader(body)))
		return w
	}
	folded := func() {
		for ing.Stats(-1).FoldedBatches < ing.Stats(-1).AckedBatches {
			time.Sleep(time.Millisecond)
		}
	}

	// Handler and direct call alternate over the pool, so both meet the
	// same disk and the same growing state; their difference is what
	// the HTTP layer adds to an Ingest.
	var handler, direct sample
	ok := true
	for i, body := range pool {
		if i%2 == 0 {
			req := httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(body))
			w := httptest.NewRecorder()
			handler.add(p.rec.time(p.root, "serve.events", 0, func() { h.ServeHTTP(w, req) }))
			ok = ok && w.Code == http.StatusOK
		} else {
			records := splitBatch(body)
			direct.add(p.rec.time(p.root, "ingest.Ingest", 0, func() {
				_, err := ing.Ingest(records)
				ok = ok && err == nil
			}))
		}
	}
	p.res.check(ok, "an in-process ingest of a generated batch failed")
	l.timing("serve.events_handler_us", 1e6*handler.q(0.5), "us", len(handler))
	l.timing("ingest.ingest_call_us", 1e6*direct.q(0.5), "us", len(direct))
	l.set("serve.events_self_us", 1e6*(handler.q(0.5)-direct.q(0.5)), "us")

	folded()
	const allocBatches = 200
	mallocs, bytes_, _ := memDelta(func() {
		for i := 0; i < allocBatches; i++ {
			ing.Ingest(splitBatch(pool[i%len(pool)]))
		}
		folded()
	})
	l.set("ingest.allocs_per_batch", mallocs/allocBatches, "count")
	l.set("ingest.alloc_bytes_per_batch", bytes_/allocBatches, "bytes")

	statsCall := p.calls("ingest.Stats(100)", 20, func(int) { ing.Stats(100) })
	statsHandler := p.calls("serve.stats", 20, func(int) { serveOK(http.MethodGet, "/v1/stats?limit=100", nil) })
	l.timing("ingest.stats_call_ms", 1e3*statsCall.q(0.5), "ms", len(statsCall))
	l.set("ingest.stats_probe_us", p.nsPerCall("ingest.Stats(-1)", 200_000, func() { ing.Stats(-1) })/1e3, "us")
	l.timing("serve.stats_handler_ms", 1e3*statsHandler.q(0.5), "ms", len(statsHandler))
	l.set("serve.stats_self_ms", 1e3*(statsHandler.q(0.5)-statsCall.q(0.5)), "ms")
	return nil
}

// jobs runs the 2×2 of driver (DES, real) and data path (sort-merge,
// INC-hash) on one input, plus the single-worker baseline, and returns
// the median real INC-hash job time for the scheduler's overhead.
func (p *prober) jobs() (float64, error) {
	l := p.res.layer
	reps := p.cfg.sz.probeReps

	// run repeats one cell and checks that the Report repeats.
	run := func(name, platform, backend string, workers int) (sample, *onepass.Report, error) {
		job, newQ, err := buildJob(jobSpec(p.cfg.seed, platform, backend, p.cfg.sz))
		if err != nil {
			return nil, nil, err
		}
		var first *onepass.Report
		durs := p.calls(name, reps, func(int) {
			var rep *onepass.Report
			if backend == "sim" {
				job.Query = newQ()
				rep, err = onepass.Run(job)
			} else {
				rep, err = onepass.RunReal(job, newQ, workers)
			}
			if err != nil {
				return
			}
			if first == nil {
				first = rep
			}
			diff := engine.ReportDiff(stable(first, backend == "real"), stable(rep, backend == "real"))
			p.res.check(diff == "", "%s: Report field %s differs between repetitions", name, diff)
		})
		return durs, first, err
	}

	job, newQ, err := buildJob(jobSpec(p.cfg.seed, "sm", "sim", p.cfg.sz))
	if err != nil {
		return 0, err
	}
	var genBytes int
	gen := p.rec.time(p.root, "workload.ChunkBytes", 0, func() {
		for c := 0; c < job.Input.NumChunks(); c++ {
			genBytes += len(job.Input.ChunkBytes(c))
		}
	})
	l.set("workload.gen_mb_per_s", float64(genBytes)/1e6/gen.Seconds(), "MB/s")
	p.kvenc(job, newQ())

	var simSM sample
	var rep *onepass.Report
	mallocs, allocBytes, pause := memDelta(func() { simSM, rep, err = run("onepass.Run sm", "sm", "sim", 0) })
	if err != nil {
		return 0, err
	}
	n := float64(len(simSM))
	l.timing("engine.job_sm_s", simSM.q(0.5), "s", len(simSM))
	l.set("engine.allocs_per_job", mallocs/n, "count")
	l.set("engine.alloc_mb_per_job", allocBytes/n/1e6, "MB")
	l.set("proc.gc_pause_ms", 1e3*pause.Seconds()/n, "ms")
	l.set("engine.virtual_s", rep.RunningTime.Seconds(), "s")
	l.set("engine.map_finish_virtual_s", rep.MapFinishTime.Seconds(), "s")
	l.set("engine.map_spill_bytes", float64(rep.MapSpillBytes), "bytes")
	l.set("engine.shuffle_bytes", float64(rep.MapOutputBytes), "bytes")
	l.set("engine.reduce_spill_bytes", float64(rep.ReduceSpillBytes), "bytes")
	l.set("engine.io_requests", float64(rep.TotalIORequests), "count")
	l.set("engine.output_records", float64(rep.OutputRecords), "count")

	simINC, _, err := run("onepass.Run inc-hash", "inc-hash", "sim", 0)
	if err != nil {
		return 0, err
	}
	l.timing("engine.job_inc_s", simINC.q(0.5), "s", len(simINC))

	realSM, _, err := run("onepass.RunReal sm", "sm", "real", nproc)
	if err != nil {
		return 0, err
	}
	l.timing("realexec.job_sm_s", realSM.q(0.5), "s", len(realSM))
	l.set("engine.sim_overhead_x", ratio(simSM.q(0.5), realSM.q(0.5)), "x")

	realINC, rep, err := run("onepass.RunReal inc-hash", "inc-hash", "real", nproc)
	if err != nil {
		return 0, err
	}
	l.timing("realexec.job_inc_s", realINC.q(0.5), "s", len(realINC))
	l.set("realexec.map_finish_s", rep.MapFinishTime.Seconds(), "s")

	realW1, _, err := run("onepass.RunReal inc-hash w1", "inc-hash", "real", 1)
	if err != nil {
		return 0, err
	}
	l.timing("realexec.job_inc_w1_s", realW1.q(0.5), "s", len(realW1))
	return realINC.q(0.5), nil
}

// kvenc sorts one map-buffer-sized stream of the job's own map output
// and merges 16 such sorted runs.
func (p *prober) kvenc(job onepass.Job, q onepass.Query) {
	const nRuns = 16
	buffer := int(job.Cluster.MapBuffer)
	var streams [][]byte
	var cur []byte
	for c := 0; c < job.Input.NumChunks() && len(streams) < nRuns; c++ {
		for _, line := range bytes.Split(job.Input.ChunkBytes(c), []byte("\n")) {
			if len(line) == 0 || len(streams) == nRuns {
				continue
			}
			q.Map(line, func(k, v []byte) { cur = kvenc.AppendPair(cur, k, v) })
			if len(cur) >= buffer {
				streams = append(streams, cur)
				cur = nil
			}
		}
	}
	if len(streams) == 0 {
		streams = append(streams, cur)
	}
	dst := make([]byte, 0, len(streams[0]))
	p.res.layer.set("kvenc.sort_mb_per_s", p.mbPerS("kvenc.SortStreamTo", len(streams[0]), 2000, func() {
		dst, _ = kvenc.SortStreamTo(dst[:0], streams[0])
	}), "MB/s")
	var total int
	runs := make([][]byte, len(streams))
	for i, s := range streams {
		runs[i], _ = kvenc.SortStream(s)
		total += len(runs[i])
	}
	merged := make([]byte, 0, total)
	ok := true
	p.res.layer.set("kvenc.merge_mb_per_s", p.mbPerS("kvenc.MergeStreamTo", total, 200, func() {
		var err error
		merged, err = kvenc.MergeStreamTo(merged[:0], runs)
		ok = ok && err == nil
	}), "MB/s")
	p.res.check(ok && kvenc.IsSorted(merged), "kvenc merge of sorted runs is not sorted")
}

// sched runs the daemon workload's job through a Scheduler in this
// process: what the scheduler and its store add to a bare RunReal.
func (p *prober) sched(realIncS float64) error {
	l := p.res.layer
	s, err := sched.Open(sched.Config{Dir: filepath.Join(p.cfg.runDir, "probe-jobs")})
	if err != nil {
		return err
	}
	defer s.Close()
	spec := jobSpec(p.cfg.seed, "inc-hash", "real", p.cfg.sz)
	m0 := s.Metrics().Store
	var submit, done, runsCall sample
	for i := 0; i < p.cfg.sz.probeReps; i++ {
		var j *sched.Job
		start := time.Now()
		submit.add(p.rec.time(p.root, "sched.Submit", 0, func() { j, err = s.Submit(spec) }))
		if err != nil {
			return err
		}
		for !terminal(j.State) {
			time.Sleep(time.Millisecond)
			if j, err = s.Get(j.ID); err != nil {
				return err
			}
		}
		done.add(time.Since(start))
		var runs []*sched.Run
		runsCall.add(p.rec.time(p.root, "sched.Runs", 0, func() { runs, err = s.Runs(j.ID) }))
		p.res.check(err == nil && j.State == sched.StateDone && len(runs) == 1,
			"in-process job %s ended %s with %d runs: %v", j.ID, j.State, len(runs), err)
	}
	m1 := s.Metrics().Store
	n := float64(len(done))
	l.timing("sched.submit_call_ms", 1e3*submit.q(0.5), "ms", len(submit))
	l.timing("sched.runs_call_ms", 1e3*runsCall.q(0.5), "ms", len(runsCall))
	l.set("sched.overhead_ms", 1e3*(done.q(0.5)-realIncS), "ms")
	l.set("jobstore.fsyncs_per_job", float64(m1.LogSyncs-m0.LogSyncs)/n, "ratio")
	l.set("jobstore.log_bytes_per_job", float64(m1.LogAppendedBytes-m0.LogAppendedBytes)/n, "bytes")
	l.set("jobstore.snapshots", float64(m1.Snapshots-m0.Snapshots), "count")
	return nil
}
