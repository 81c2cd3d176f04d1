package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/mr"
	"repro/internal/seglog"
)

// Sentinel errors surfaced to the HTTP layer.
var (
	// ErrOverloaded means the batch was shed by admission control
	// (byte budget or fold queue full) — HTTP 429, retry later. The
	// batch was NOT written to the WAL.
	ErrOverloaded = errors.New("ingest: overloaded, retry later")
	// ErrDraining means the service is shutting down and no longer
	// accepts batches.
	ErrDraining = errors.New("ingest: draining")
	// ErrEmptyBatch rejects a batch with no records.
	ErrEmptyBatch = errors.New("ingest: empty batch")
)

// Config configures an Ingester. Zero values take the defaults noted;
// negative values disable where noted.
type Config struct {
	// Dir is the WAL + checkpoint directory (required).
	Dir string
	// QueryName labels the query in stats.
	QueryName string
	// NewQuery constructs the resident query (required; must implement
	// mr.Incremental). A factory, not an instance: recovery and crash
	// tests build fresh instances with clean scratch state.
	NewQuery func() mr.Query
	// Validate, if non-nil, vets each record before admission.
	Validate func(rec []byte) error
	// SealBytes seals the open WAL segment once it reaches this size.
	// Default 4 MiB.
	SealBytes int64
	// CheckpointEvery takes a checkpoint after folding every Nth
	// batch. Default 256; negative disables checkpointing.
	CheckpointEvery int64
	// MaxInflightBytes is the byte budget when Budget is not set: it
	// bounds accepted-but-unfolded batches, each charged its record
	// bytes plus the most it may grow the fold's table, plus the table
	// itself, and batches beyond it are shed with ErrOverloaded. Default
	// 64 MiB. Ignored when Budget is set.
	MaxInflightBytes int64
	// Budget, if set, is the byte budget accepted-but-unfolded bytes
	// and the fold draw on, shared with the job scheduler.
	Budget *budget.Budget
	// Fail injects crash/overload faults (tests only).
	Fail *Failpoints

	// The fold queue's depth in batches, the checkpoints kept (with the
	// WAL segments they need) and the scavenger's interval in folded
	// records are queueDepth, retainCheckpoints and scanEvery; tests
	// change them.
	queueDepth, retain int
	scanEvery          int64
}

const (
	queueDepth        = 256
	retainCheckpoints = 2
	scanEvery         = 4096
)

func (cfg *Config) withDefaults() error {
	if cfg.Dir == "" {
		return errors.New("ingest: Config.Dir is required")
	}
	if cfg.NewQuery == nil {
		return errors.New("ingest: Config.NewQuery is required")
	}
	if cfg.SealBytes <= 0 {
		cfg.SealBytes = 4 << 20
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.MaxInflightBytes <= 0 {
		cfg.MaxInflightBytes = 64 << 20
	}
	if cfg.Budget == nil {
		cfg.Budget = budget.New(cfg.MaxInflightBytes)
	}
	if cfg.queueDepth == 0 {
		cfg.queueDepth = queueDepth
	}
	if cfg.retain == 0 {
		cfg.retain = retainCheckpoints
	}
	if cfg.scanEvery == 0 {
		cfg.scanEvery = scanEvery
	}
	if cfg.Fail == nil {
		cfg.Fail = &Failpoints{}
	}
	return nil
}

// RecoveryInfo describes what Open had to do to reach a consistent
// state. RecoveryReadBytes counts only WAL bytes actually read — the
// post-checkpoint suffix — which the crash tests assert never covers
// segments the newest checkpoint already subsumes.
type RecoveryInfo struct {
	RestoredSeq                 int64 `json:"restored_seq"` // 0 = no checkpoint
	RestoredSeg                 int64 `json:"restored_seg"`
	RestoredOff                 int64 `json:"restored_off"`
	ReplayedBatches             int64 `json:"replayed_batches"`
	ReplayedRecords             int64 `json:"replayed_records"`
	RecoveryReadBytes           int64 `json:"recovery_read_bytes"`
	SkippedSegmentBytes         int64 `json:"skipped_segment_bytes"`
	TornTailsTruncated          int64 `json:"torn_tails_truncated"`
	CheckpointsDiscardedTorn    int64 `json:"checkpoints_discarded_torn"`
	CheckpointsDiscardedCorrupt int64 `json:"checkpoints_discarded_corrupt"`
}

// pending is one acknowledged batch waiting to be folded.
type pending struct {
	seq      int64
	seg, off int64 // WAL position just past the batch
	charge   int64 // what Ingest took from the budget for it
	records  [][]byte
}

// Ingester is the crash-recoverable ingestion service: WAL-then-ack
// on the request path, an asynchronous resident fold behind a bounded
// queue, periodic checkpoints, and recovery in Open.
type Ingester struct {
	cfg    Config
	folder *folder

	mu       sync.Mutex // serializes WAL appends + lifecycle
	w        *seglog.Log
	draining bool
	closed   bool // queue closed

	aborted atomic.Bool

	ackedBatches atomic.Int64
	ackedRecords atomic.Int64

	queue    chan pending
	foldDone chan struct{}

	// Written only by the fold goroutine (and Open before it starts);
	// read by Drain after foldDone closes.
	lastSeg, lastOff int64

	m metrics

	// Recovery reports what Open did; immutable afterwards.
	Recovery RecoveryInfo
}

// metrics are the service's monotonic counters (atomic: bumped from
// the request path and the fold goroutine, snapshotted by /metricsz).
type metrics struct {
	acceptedBatches, acceptedRecords, acceptedBytes atomic.Int64
	shedBatches, shedBytes                          atomic.Int64
	rejectedRecords                                 atomic.Int64
	foldedBatches, foldedRecords                    atomic.Int64
}

// Open recovers the directory to a consistent state and starts the
// service: restore the newest good checkpoint, replay the WAL suffix
// after it (asserting batch-sequence contiguity), truncate a torn
// tail on the final segment only, and refuse to start over corruption
// or a torn tail in a sealed segment.
func Open(cfg Config) (*Ingester, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	f, err := newFolder(cfg.QueryName, cfg.NewQuery, cfg.scanEvery)
	if err != nil {
		return nil, err
	}
	s := &Ingester{
		cfg:      cfg,
		folder:   f,
		queue:    make(chan pending, cfg.queueDepth),
		foldDone: make(chan struct{}),
	}
	var replayedRecords int64
	w, info, err := seglog.Recover(&layout, seglog.Options{
		Dir: cfg.Dir, SealBytes: cfg.SealBytes, Retain: cfg.retain, Fail: &cfg.Fail.Failpoints,
	}, seglog.Replay{
		Image: func(data []byte) (seglog.ImageRef, func() error, error) {
			ck, err := decodeCheckpoint(data)
			if err != nil {
				return seglog.ImageRef{}, nil, err
			}
			return seglog.ImageRef{ID: ck.Seq, Seg: ck.Seg, Off: ck.Off}, func() error { return f.restore(ck) }, nil
		},
		Record: func(p []byte) (int64, func(), error) {
			seq, recs, err := decodeBatch(p)
			return seq, func() {
				f.fold(seq, recs)
				replayedRecords += int64(len(recs))
			}, err
		},
	})
	if err != nil {
		return nil, err
	}
	s.Recovery = RecoveryInfo{
		RestoredSeq:                 info.Image.ID,
		RestoredSeg:                 info.Image.Seg,
		RestoredOff:                 info.Image.Off,
		ReplayedBatches:             info.Replayed,
		ReplayedRecords:             replayedRecords,
		RecoveryReadBytes:           info.ReadBytes,
		SkippedSegmentBytes:         info.SkippedBytes,
		TornTailsTruncated:          info.TornTails,
		CheckpointsDiscardedTorn:    info.ImagesTorn,
		CheckpointsDiscardedCorrupt: info.ImagesCorrupt,
	}
	s.w = w
	at := w.Stats()
	s.lastSeg, s.lastOff = at.Seg, at.Off
	s.ackedBatches.Store(at.NextID - 1)
	s.ackedRecords.Store(f.foldedRecords)
	s.m.foldedBatches.Store(info.Replayed)
	s.m.foldedRecords.Store(replayedRecords)
	cfg.Budget.Hold(f.size())

	go s.foldLoop()
	return s, nil
}

// Ingest validates, admits, and durably appends one batch, returning
// its sequence number once it is fsynced (the acknowledgment point).
// The service retains records until folded; callers must not reuse
// their backing arrays. ErrOverloaded means nothing was persisted.
func (s *Ingester) Ingest(records [][]byte) (int64, error) {
	if len(records) == 0 {
		return 0, ErrEmptyBatch
	}
	var size int64
	for _, rec := range records {
		if s.cfg.Validate != nil {
			if err := s.cfg.Validate(rec); err != nil {
				s.m.rejectedRecords.Add(1)
				return 0, err
			}
		}
		size += int64(len(rec))
	}
	// Byte-budget admission: take before touching the WAL, give back
	// on any failure. The charge counts what the batch may grow the
	// fold by, so a stalled folder cannot carry memory past the budget.
	charge := s.folder.charge(records)
	if !s.cfg.Budget.Take(charge) {
		s.m.shedBatches.Add(1)
		s.m.shedBytes.Add(size)
		return 0, ErrOverloaded
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Err(); err != nil {
		s.cfg.Budget.Give(charge)
		return 0, err
	}
	if s.draining {
		s.cfg.Budget.Give(charge)
		return 0, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.cfg.Budget.Give(charge)
		s.m.shedBatches.Add(1)
		s.m.shedBytes.Add(size)
		return 0, ErrOverloaded
	}
	seq, seg, off, err := s.w.Append(func(dst []byte, seq int64) []byte {
		return appendBatch(dst, seq, records)
	})
	if err != nil {
		s.cfg.Budget.Give(charge)
		return 0, err
	}
	s.ackedBatches.Add(1)
	s.ackedRecords.Add(int64(len(records)))
	s.m.acceptedBatches.Add(1)
	s.m.acceptedRecords.Add(int64(len(records)))
	s.m.acceptedBytes.Add(size)
	s.queue <- pending{seq: seq, seg: seg, off: off, charge: charge, records: records}
	return seq, nil
}

// foldLoop drains acknowledged batches into the resident fold, holding
// its growth in the budget before giving the batch's charge back, and
// takes periodic checkpoints. A checkpoint failure wedges the log,
// hence the service, and stops folding — mirroring a crash, which is
// exactly what the failpoint tests simulate. On its way out it gives
// the fold's bytes back.
func (s *Ingester) foldLoop() {
	defer close(s.foldDone)
	defer func() { table, log := s.folder.size(); s.cfg.Budget.Hold(-table, -log) }()
	for p := range s.queue {
		if delay := s.cfg.Fail.FoldDelay; delay != nil && !s.aborted.Load() {
			delay(p.seq)
		}
		if s.aborted.Load() {
			s.cfg.Budget.Give(p.charge)
			continue
		}
		s.cfg.Budget.Hold(s.folder.fold(p.seq, p.records))
		s.lastSeg, s.lastOff = p.seg, p.off
		s.m.foldedBatches.Add(1)
		s.m.foldedRecords.Add(int64(len(p.records)))
		s.cfg.Budget.Give(p.charge)
		if s.cfg.CheckpointEvery > 0 && p.seq%s.cfg.CheckpointEvery == 0 {
			if s.writeCkpt(p.seg, p.off) != nil {
				return
			}
		}
	}
}

// writeCkpt snapshots the fold, persists it at WAL position (seg,
// off), and prunes the checkpoint/segment chain. Fold goroutine only.
func (s *Ingester) writeCkpt(seg, off int64) error {
	ck := s.folder.snapshot()
	ck.Seg, ck.Off = seg, off
	return s.w.WriteImage(seglog.ImageRef{ID: ck.Seq, Seg: seg, Off: off}, encodeCheckpoint(ck))
}

// Drain stops admission, folds everything already acknowledged, takes
// a final checkpoint, seals the open segment, and closes the WAL. On
// success every acknowledged batch is folded (γ = 1) and a subsequent
// Open replays nothing. The context bounds the wait.
func (s *Ingester) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.draining = true
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	select {
	case <-s.foldDone:
	case <-ctx.Done():
		return fmt.Errorf("ingest: drain: %w", ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Err(); err != nil {
		return err
	}
	if s.cfg.CheckpointEvery > 0 && s.folder.foldedBatches > s.w.Stats().LastImage {
		if err := s.writeCkpt(s.lastSeg, s.lastOff); err != nil {
			return err
		}
	}
	if err := s.w.Seal(); err != nil {
		return err
	}
	return s.w.Close()
}

// Abort simulates the process dying in place (tests): the WAL file is
// closed without flushing, queued batches are discarded unfolded, and
// no further checkpoints are written. The directory is left exactly as
// kill -9 would — reopen it with Open.
func (s *Ingester) Abort() {
	s.aborted.Store(true)
	s.mu.Lock()
	s.draining = true
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.w.Abort()
	s.mu.Unlock()
	<-s.foldDone
}

// Healthy reports whether the service can accept writes.
func (s *Ingester) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Err(); err != nil {
		return err
	}
	if s.draining {
		return ErrDraining
	}
	return nil
}

// Stats returns the served answers plus coverage counters; see
// folder.stats for the limit semantics.
func (s *Ingester) Stats(limit int) Stats {
	st := s.folder.stats(limit)
	st.AckedBatches = s.ackedBatches.Load()
	st.AckedRecords = s.ackedRecords.Load()
	st.Gamma = gamma(st.FoldedRecords, st.AckedRecords)
	return st
}

// gamma is folded/acked clamped to [0, 1]; an idle service is exact.
func gamma(folded, acked int64) float64 {
	if acked <= 0 {
		return 1
	}
	g := float64(folded) / float64(acked)
	if g > 1 {
		g = 1
	}
	return g
}

// MetricsSnapshot is the /metricsz payload.
type MetricsSnapshot struct {
	Query            string       `json:"query"`
	Gamma            float64      `json:"gamma"`
	AcceptedBatches  int64        `json:"accepted_batches"`
	AcceptedRecords  int64        `json:"accepted_records"`
	AcceptedBytes    int64        `json:"accepted_bytes"`
	ShedBatches      int64        `json:"shed_batches"`
	ShedBytes        int64        `json:"shed_bytes"`
	RejectedRecords  int64        `json:"rejected_records"`
	FoldedBatches    int64        `json:"folded_batches"`
	FoldedRecords    int64        `json:"folded_records"`
	InflightBytes    int64        `json:"inflight_bytes"`
	FoldBytes        int64        `json:"fold_bytes"`
	QueueDepth       int          `json:"queue_depth"`
	WALSegment       int64        `json:"wal_segment"`
	WALOffset        int64        `json:"wal_offset"`
	WALSeals         int64        `json:"wal_seals"`
	WALSyncs         int64        `json:"wal_syncs"`
	WALAppendedBytes int64        `json:"wal_appended_bytes"`
	Checkpoints      int64        `json:"checkpoints"`
	CheckpointBytes  int64        `json:"checkpoint_bytes"`
	Draining         bool         `json:"draining"`
	Wedged           string       `json:"wedged,omitempty"`
	Recovery         RecoveryInfo `json:"recovery"`
}

// Metrics snapshots the service counters.
func (s *Ingester) Metrics() MetricsSnapshot {
	b := s.cfg.Budget.Snapshot()
	snap := MetricsSnapshot{
		Query:           s.cfg.QueryName,
		Gamma:           s.Stats(-1).Gamma,
		AcceptedBatches: s.m.acceptedBatches.Load(),
		AcceptedRecords: s.m.acceptedRecords.Load(),
		AcceptedBytes:   s.m.acceptedBytes.Load(),
		ShedBatches:     s.m.shedBatches.Load(),
		ShedBytes:       s.m.shedBytes.Load(),
		RejectedRecords: s.m.rejectedRecords.Load(),
		FoldedBatches:   s.m.foldedBatches.Load(),
		FoldedRecords:   s.m.foldedRecords.Load(),
		InflightBytes:   b.Inflight,
		FoldBytes:       b.Fold,
		QueueDepth:      len(s.queue),
		Recovery:        s.Recovery,
	}
	s.mu.Lock()
	st := s.w.Stats()
	snap.Draining = s.draining
	s.mu.Unlock()
	snap.WALSegment = st.Seg
	snap.WALOffset = st.Off
	snap.WALSeals = st.Seals
	snap.WALSyncs = st.Syncs
	snap.WALAppendedBytes = st.AppendedBytes
	snap.Checkpoints = st.Images
	snap.CheckpointBytes = st.ImageBytes
	if err := s.w.Err(); err != nil {
		snap.Wedged = err.Error()
	}
	return snap
}
