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
// truncated on recovery) and clients retry them. The log
// (internal/seglog) numbers the batches and decides what a failed
// write means: after the first one it refuses everything, and the
// service reports the log's error as its own health. Folding is
// asynchronous behind a byte-bounded queue: when the budget is
// exhausted the service sheds load with ErrOverloaded instead of
// growing memory.
package ingest

import "repro/internal/seglog"

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point (fsync that never happened, seal cut
// short, checkpoint half-written). The log wedges on it — every later
// append and checkpoint refuses with the same error — and the crash
// harness then reopens the directory like a fresh process would.
var ErrCrash = seglog.ErrCrash

// Failpoints are test hooks for crash and overload injection: the
// log's own (record ids are batch seqs, images are checkpoints) plus
// the fold's. All are optional.
type Failpoints struct {
	seglog.Failpoints
	// FoldDelay is called before folding each batch; tests use it to
	// stall the folder and force admission control to engage.
	FoldDelay func(seq int64)
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
