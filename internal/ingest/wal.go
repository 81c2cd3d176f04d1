// Package ingest implements the durable side of onepassd, the
// long-running ingestion + query service: a CRC32C-framed write-ahead
// log of event batches, a resident incremental fold of those batches
// through an mr.Incremental query (the INC/DINC techniques of §4.2–4.3
// running as a service instead of a job), checkpoint images of the
// fold state beside the WAL, and crash recovery that restores the
// newest good checkpoint and replays only the post-checkpoint WAL
// suffix — bit-identical to a run that was never interrupted.
//
// Durability contract: a batch is acknowledged (2xx) only after its
// frame is fsynced into the open WAL segment. Acknowledged batches
// survive kill -9; unacknowledged ones may be lost (torn tails are
// truncated on recovery) and clients retry them. Folding is
// asynchronous behind a byte-bounded queue: when the budget is
// exhausted the service sheds load with ErrOverloaded instead of
// growing memory.
package ingest

import "repro/internal/seglog"

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point (fsync that never happened, seal cut
// short, checkpoint half-written). The service wedges itself when it
// surfaces; the crash harness then reopens the directory like a fresh
// process would.
var ErrCrash = seglog.ErrCrash

// Failpoints are test hooks for crash and overload injection. All are
// optional; a nil Failpoints (or field) is a no-op.
type Failpoints struct {
	// BeforeAppendSync fires before fsyncing batch seq's frame; a
	// non-nil error aborts the append after the (unsynced) write.
	BeforeAppendSync func(seq int64) error
	// TornAppend, if non-nil and returning n >= 0 for batch seq,
	// persists only the first n bytes of the frame and fails the
	// append — a torn write at a controlled offset.
	TornAppend func(seq int64) int
	// BeforeSeal fires before sealing segment seg.
	BeforeSeal func(seg int64) error
	// TornCheckpoint, if non-nil and returning n >= 0 for the
	// checkpoint at seq, persists only the first n bytes of the
	// checkpoint file and fails — a torn checkpoint that recovery must
	// fall back from.
	TornCheckpoint func(seq int64) int
	// FoldDelay is called before folding each batch; tests use it to
	// stall the folder and force admission control to engage.
	FoldDelay func(seq int64)
}

// logFail hands the WAL's share of the hooks to the log layer.
func (fp *Failpoints) logFail() *seglog.Failpoints {
	if fp == nil {
		return nil
	}
	return &seglog.Failpoints{
		TornAppend: fp.TornAppend,
		BeforeSync: fp.BeforeAppendSync,
		BeforeSeal: fp.BeforeSeal,
		TornImage:  fp.TornCheckpoint,
	}
}

// layout is the WAL directory's shape in internal/seglog's terms:
// sealed segments wal-%08d.seg of one frame per batch, checkpoints
// ckpt-%016d.ck of exactly two frames (header, core.FramedImage).
var layout = seglog.Layout{
	Name:      "ingest: WAL",
	SegPrefix: "wal-", SegExt: ".seg",
	ImgPrefix: "ckpt-", ImgExt: ".ck",
	ImgFrames: 2,
}

// SegmentError reports a damaged WAL segment that recovery refuses to
// repair silently: corruption anywhere, or a torn tail somewhere other
// than the final (still-writable) segment.
type SegmentError = seglog.SegmentError
