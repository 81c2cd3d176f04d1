package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/reference"
)

// ingestQuery is the resident query of both ingest workloads.
const ingestQuery = "clickcount"

// ack is one acknowledged batch: its durable sequence number and the
// pool entry that was sent.
type ack struct {
	seq int64
	idx int
}

// ackReply is the POST /v1/events success body.
type ackReply struct {
	Seq     int64 `json:"seq"`
	Records int   `json:"records"`
}

// statsReply is the part of GET /v1/stats the generator reads.
type statsReply struct {
	FoldedBatches int64 `json:"folded_batches"`
}

// ingestSetup builds the daemon binary, generates the request pool and
// starts a daemon on fresh directories, reps times; it returns the
// last daemon, the pool and the median set-up time.
func ingestSetup(cfg config, users int) (*daemon, [][]byte, float64, error) {
	var d *daemon
	var pool [][]byte
	bin := filepath.Join(cfg.benchDir, "out", "onepassd")
	setupS, err := medianSetup(cfg.sz.setupReps, func(rep int) error {
		if err := buildDaemon(cfg.benchDir, bin); err != nil {
			return err
		}
		pool = clickPool(cfg.seed, users, cfg.sz.poolBatches)
		var err error
		d, err = startDaemon(bin, filepath.Join(cfg.runDir, fmt.Sprint("setup", rep)), ingestQuery, false)
		return err
	}, func() { d.stop(syscall.SIGKILL) })
	return d, pool, setupS, err
}

// observeWindow sleeps through the window, reads the daemon's own
// counters and its /proc entry at both ends, and turns the differences
// into per-layer metrics.
func observeWindow(res *result, d *daemon, w window) error {
	time.Sleep(time.Until(w.start))
	m0, err0 := d.metricsz()
	p0, _ := readProc(d.cmd.Process.Pid)
	time.Sleep(time.Until(w.end))
	m1, err1 := d.metricsz()
	p1, _ := readProc(d.cmd.Process.Pid)
	if err0 != nil || err1 != nil {
		return fmt.Errorf("metricsz: %v, %v", err0, err1)
	}
	batches := float64(m1.AcceptedBatches - m0.AcceptedBatches)
	res.layer.set("ingest.fsyncs_per_batch", ratio(float64(m1.WALSyncs-m0.WALSyncs), batches), "ratio")
	res.layer.set("ingest.wal_bytes_per_user_byte",
		ratio(float64(m1.WALAppendedBytes-m0.WALAppendedBytes), float64(m1.AcceptedBytes-m0.AcceptedBytes)), "ratio")
	res.layer.set("ingest.checkpoints", float64(m1.Checkpoints-m0.Checkpoints), "count")
	res.layer.set("ingest.checkpoint_bytes", float64(m1.CheckpointBytes-m0.CheckpointBytes), "bytes")
	res.layer.set("ingest.wal_seals", float64(m1.WALSeals-m0.WALSeals), "count")
	procMetrics(res, p0, p1, w.seconds(), float64(m1.AcceptedRecords-m0.AcceptedRecords))
	return nil
}

// runIngestSat saturates the ack path: nproc keep-alive connections in
// a closed loop, each POSTing the next batch as soon as its previous
// one is acknowledged.
func runIngestSat(cfg config, rec *recorder, res *result) error {
	d, pool, setupS, err := ingestSetup(cfg, 1000)
	if err != nil {
		return err
	}
	defer d.stop(syscall.SIGKILL)

	w := newWindow(cfg, rec)
	type connOut struct {
		traced, untraced sample
		acks             []ack
		errs             httpCounts
		sent             int64
	}
	outs := make([]connOut, nproc)
	var wg sync.WaitGroup
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			conn := newConn()
			defer conn.CloseIdleConnections()
			for i := c; ; i += nproc {
				idx := i % len(pool)
				start := time.Now()
				if !start.Before(w.end) {
					return
				}
				var reply ackReply
				err := postJSON(conn, d.base+"/v1/events", pool[idx], 200, &reply)
				end := time.Now()
				o.sent++
				if err != nil {
					o.errs.note(err)
					continue
				}
				o.acks = append(o.acks, ack{reply.Seq, idx})
				if !w.contains(start) {
					continue
				}
				if r := w.recorderAt(start); r != nil {
					req := r.newReq()
					root := r.add(0, "req", req, start, end)
					r.add(root, "http.roundtrip", req, start, end)
					o.traced.add(end.Sub(start))
				} else {
					o.untraced.add(end.Sub(start))
				}
			}
		}(c)
	}
	err = observeWindow(res, d, w)
	wg.Wait()
	if err != nil {
		return err
	}

	var traced, untraced sample
	var acks []ack
	var errs httpCounts
	for _, o := range outs {
		traced = append(traced, o.traced...)
		untraced = append(untraced, o.untraced...)
		acks = append(acks, o.acks...)
		errs.add(o.errs)
		res.op(o.sent, o.errs.failed())
	}
	lat := append(append(sample(nil), traced...), untraced...)

	res.e2e.set("setup_s", setupS, "s")
	res.e2e.timing("op_p50_ms", 1e3*lat.q(0.5), "ms", len(lat))
	res.layer.timing("bench.op_tail_ms", 1e3*lat.tail(), "ms", len(lat))
	res.layer.set("bench.records_per_s", float64(len(lat)*batchRecords)/w.seconds(), "records/s")

	res.layer.timing("serve.ack_p50_ms", 1e3*lat.q(0.5), "ms", len(lat))
	res.layer.timing("serve.ack_p99_ms", 1e3*lat.q(0.99), "ms", len(lat))
	res.layer.set("serve.shed_429", float64(errs.shed), "count")
	res.layer.set("serve.http_errors", float64(errs.other), "count")
	res.layer.set("bench.trace_overhead_pct", overheadPct(traced, untraced), "%")

	// No request is in flight any more, so the highest acknowledged seq
	// is exactly what must survive; batches still queued for the fold
	// die with the process and have to come back from the WAL.
	if err := d.stop(syscall.SIGKILL); err == nil {
		return fmt.Errorf("onepassd exited 0 on SIGKILL")
	}
	return verifyIngestDir(res, d.walDir, pool, acks, false)
}

// ackLog passes acknowledgments from the read-mix writer to its
// reader, which resolves when each becomes visible.
type ackLog struct {
	mu   sync.Mutex
	acks []pendingAck
	next int // first unresolved entry
}

type pendingAck struct {
	seq        int64
	due, acked time.Time
}

func (l *ackLog) add(a pendingAck) {
	l.mu.Lock()
	l.acks = append(l.acks, a)
	l.mu.Unlock()
}

// resolve reports every acknowledged batch a reply at time t proves
// folded, through fn. The single writer acknowledges in seq order, so
// the unresolved entries are a suffix.
func (l *ackLog) resolve(folded int64, t time.Time, fn func(pendingAck)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.next < len(l.acks) && l.acks[l.next].seq <= folded {
		fn(l.acks[l.next])
		l.next++
	}
}

func (l *ackLog) unresolved() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acks) - l.next
}

// Read-mix schedule: a writer at a fixed rate, scheduled reads at
// 5 Hz, visibility probes every 2 ms between them.
const (
	writeEvery = 5 * time.Millisecond // 200 batches/s
	readEvery  = 200 * time.Millisecond
	probeEvery = 2 * time.Millisecond
)

// runReadMix reads beside writes: connection 1 is an open-loop writer,
// connection 2 a reader on a fixed schedule that also timestamps when
// each acknowledged batch becomes visible.
func runReadMix(cfg config, rec *recorder, res *result) error {
	d, pool, setupS, err := ingestSetup(cfg, 20_000)
	if err != nil {
		return err
	}
	defer d.stop(syscall.SIGKILL)

	w := newWindow(cfg, rec)
	t0 := time.Now()
	var (
		log        ackLog
		writerDone atomic.Bool
		wg         sync.WaitGroup

		ackLat  sample // due → 200
		late    sample // sendable (due, and the connection free) → actually sent
		acks    []ack
		lastAck time.Time // of a request due in the window
		werrs   httpCounts
		wsent   int64

		statsTraced, statsUn sample // scheduled read, due → reply
		lag, visible         sample // ack → visible; due → visible
		depth, inflight      sample // daemon gauges at 5 Hz
		rerrs                httpCounts
		rsent                int64
		readerGaveUp         bool
	)

	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer writerDone.Store(true)
		conn := newConn()
		defer conn.CloseIdleConnections()
		free := t0 // when the connection's previous reply arrived
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * writeEvery)
			if !due.Before(w.end) {
				return
			}
			time.Sleep(time.Until(due))
			idx := k % len(pool)
			start := time.Now()
			sendable := due
			if free.After(due) {
				sendable = free
			}
			var reply ackReply
			err := postJSON(conn, d.base+"/v1/events", pool[idx], 200, &reply)
			end := time.Now()
			free = end
			wsent++
			if err != nil {
				werrs.note(err)
				continue
			}
			acks = append(acks, ack{reply.Seq, idx})
			log.add(pendingAck{reply.Seq, due, end})
			if !w.contains(due) {
				continue
			}
			late.add(start.Sub(sendable))
			lastAck = end
			ackLat.add(end.Sub(due))
			if r := w.recorderAt(due); r != nil {
				req := r.newReq()
				root := r.add(0, "req", req, due, end)
				r.add(root, "http.roundtrip", req, start, end)
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		conn := newConn()
		defer conn.CloseIdleConnections()
		seen := func(folded int64, t time.Time) {
			log.resolve(folded, t, func(a pendingAck) {
				if !w.contains(a.due) {
					return
				}
				lag.add(max(0, t.Sub(a.acked)))
				visible.add(t.Sub(a.due))
			})
		}
		nextRead := t0
		giveUp := w.end.Add(10 * time.Second)
		for {
			now := time.Now()
			if !now.Before(w.end) && writerDone.Load() && log.unresolved() == 0 {
				return
			}
			if now.After(giveUp) {
				readerGaveUp = true
				return
			}
			if !now.Before(nextRead) && nextRead.Before(w.end) {
				due := nextRead
				nextRead = nextRead.Add(readEvery)
				var st statsReply
				err := getJSON(conn, d.base+"/v1/stats?limit=100", &st)
				end := time.Now()
				rsent++
				if err != nil {
					rerrs.note(err)
					continue
				}
				seen(st.FoldedBatches, end)
				var snap ingest.MetricsSnapshot
				err = getJSON(conn, d.base+"/metricsz", &snap)
				rsent++
				if err != nil {
					rerrs.note(err)
					continue
				}
				if w.contains(due) {
					depth = append(depth, float64(snap.QueueDepth))
					inflight = append(inflight, float64(snap.InflightBytes))
					if r := w.recorderAt(due); r != nil {
						req := r.newReq()
						root := r.add(0, "read", req, due, end)
						r.add(root, "http.roundtrip", req, now, end)
						statsTraced.add(end.Sub(due))
					} else {
						statsUn.add(end.Sub(due))
					}
				}
				continue
			}
			var st statsReply
			err := getJSON(conn, d.base+"/v1/stats?limit=-1", &st)
			end := time.Now()
			rsent++
			if err != nil {
				rerrs.note(err)
			} else {
				seen(st.FoldedBatches, end)
				if r := w.recorderAt(now); r != nil {
					req := r.newReq()
					root := r.add(0, "visible.probe", req, now, end)
					r.add(root, "http.roundtrip", req, now, end)
				}
			}
			next := now.Add(probeEvery)
			if nextRead.Before(next) && nextRead.Before(w.end) {
				next = nextRead
			}
			time.Sleep(time.Until(next))
		}
	}()
	err = observeWindow(res, d, w)
	wg.Wait()
	if err != nil {
		return err
	}

	res.op(wsent, werrs.failed())
	res.op(rsent, rerrs.failed())
	res.check(!readerGaveUp, "%d acknowledged batches never became visible within 10s of the window", log.unresolved())

	statsLat := append(append(sample(nil), statsTraced...), statsUn...)

	// The gated operation is the scheduled read: it is what this workload
	// has that the others have not, and its cost is the program's (an
	// O(keys) finalize and sort), where a write's way to visibility is
	// half this sandbox's fsync.
	res.e2e.set("setup_s", setupS, "s")
	res.e2e.timing("op_p50_ms", 1e3*statsLat.q(0.5), "ms", len(statsLat))
	res.layer.timing("bench.op_tail_ms", 1e3*statsLat.tail(), "ms", len(statsLat))
	res.layer.timing("ingest.visible_p50_ms", 1e3*visible.q(0.5), "ms", len(visible))
	res.layer.timing("ingest.visible_p99_ms", 1e3*visible.q(0.99), "ms", len(visible))
	// The open loop offers a fixed rate; what it achieved is the records
	// acknowledged over the time that took, to the last acknowledgment.
	res.layer.set("bench.records_per_s", float64(len(ackLat)*batchRecords)/lastAck.Sub(w.start).Seconds(), "records/s")

	res.layer.timing("serve.ack_p50_ms", 1e3*ackLat.q(0.5), "ms", len(ackLat))
	res.layer.timing("serve.ack_p99_ms", 1e3*ackLat.q(0.99), "ms", len(ackLat))
	res.layer.timing("serve.stats_p50_ms", 1e3*statsLat.q(0.5), "ms", len(statsLat))
	res.layer.set("serve.shed_429", float64(werrs.shed+rerrs.shed), "count")
	res.layer.set("serve.http_errors", float64(werrs.other+rerrs.other), "count")
	res.layer.timing("ingest.visible_lag_p50_ms", 1e3*lag.q(0.5), "ms", len(lag))
	res.layer.timing("ingest.visible_lag_p95_ms", 1e3*lag.q(0.95), "ms", len(lag))
	res.layer.timing("ingest.visible_lag_p99_ms", 1e3*lag.q(0.99), "ms", len(lag))
	res.layer.timing("ingest.queue_depth_p95", depth.q(0.95), "count", len(depth))
	res.layer.timing("ingest.inflight_bytes_max", inflight.q(1), "bytes", len(inflight))
	res.layer.timing("loadgen.late_p99_ms", 1e3*late.q(0.99), "ms", len(late))
	res.layer.timing("loadgen.late_max_ms", 1e3*late.q(1), "ms", len(late))
	res.layer.set("bench.trace_overhead_pct", overheadPct(statsTraced, statsUn), "%")

	// SIGTERM must drain: exit 0, everything folded and checkpointed,
	// nothing left to replay.
	err = d.stop(syscall.SIGTERM)
	res.check(err == nil, "onepassd did not exit 0 on SIGTERM: %v\n%s", err, d.stderr.String())
	return verifyIngestDir(res, d.walDir, pool, acks, true)
}

// verifyIngestDir opens the dead daemon's directory in this process
// and checks durability and the answers: the acknowledged seqs are
// contiguous, every one of them survived, and the recovered answers
// equal the reference evaluator over exactly the acknowledged records.
// After a drain there must be nothing to replay.
func verifyIngestDir(res *result, walDir string, pool [][]byte, acks []ack, drained bool) error {
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	contiguous := true
	for i, a := range acks {
		if a.seq != int64(i+1) {
			contiguous = false
			res.check(false, "acknowledged seqs not contiguous: position %d holds seq %d", i+1, a.seq)
			break
		}
	}
	if contiguous {
		res.check(true, "")
	}

	factory, validate, err := ingest.StandardQuery(ingestQuery)
	if err != nil {
		return err
	}
	// The daemon's own defaults (cmd/onepassd flags), so recovery does
	// what a restarted daemon would.
	start := time.Now()
	ing, err := ingest.Open(ingest.Config{
		Dir: walDir, QueryName: ingestQuery, NewQuery: factory, Validate: validate,
		SealBytes: 64 << 20, CheckpointEvery: 256, MaxInflightBytes: 64 << 20,
	})
	reopen := time.Since(start)
	if err != nil {
		res.check(false, "reopen %s: %v", walDir, err)
		return nil
	}
	defer ing.Drain(context.Background())
	res.layer.set("ingest.reopen_ms", 1e3*reopen.Seconds(), "ms")
	res.layer.set("ingest.recovery_read_bytes", float64(ing.Recovery.RecoveryReadBytes), "bytes")
	res.layer.set("ingest.replayed_batches", float64(ing.Recovery.ReplayedBatches), "count")

	st := ing.Stats(0)
	res.check(st.AckedBatches >= int64(len(acks)), "recovered %d batches, %d were acknowledged", st.AckedBatches, len(acks))
	res.check(st.Gamma == 1, "recovered gamma = %v, want 1", st.Gamma)
	if drained {
		res.check(ing.Recovery.ReplayedBatches == 0, "drained daemon left %d batches to replay", ing.Recovery.ReplayedBatches)
	}

	sent := make([]int, len(acks))
	for i, a := range acks {
		sent[i] = a.idx
	}
	want := reference.Run(onepass.ClickCount(), batchInput{pool, sent})
	same := len(want) == len(st.Answers)
	for i := 0; same && i < len(want); i++ {
		same = want[i].Key == st.Answers[i].Key && want[i].Value == st.Answers[i].Value
	}
	res.check(same, "recovered answers (%d) differ from the reference over the acknowledged records (%d)", len(st.Answers), len(want))
	return nil
}
