package ingest

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
)

// checkpointVersion guards the header layout; bump on change.
const checkpointVersion = 1

// ErrBadCheckpoint reports a checkpoint file whose frames verified but
// whose contents do not decode — damage beyond what a chain fallback
// should paper over.
var ErrBadCheckpoint = errors.New("ingest: malformed checkpoint")

// checkpoint is one durable snapshot of the resident fold: the
// query's full state image plus the WAL position (segment, end
// offset) just past the last batch folded into it. Recovery restores
// the newest good checkpoint and replays only the WAL suffix after
// (Seg, Off).
//
// File layout (ckpt-<seq>.ck), validated with frame.ScanTail — the
// same audited code path WAL recovery uses:
//
//	frame([version][seq][seg][off][watermark] varints)
//	core.FramedImage(Img)
//
// Checkpoints are written in place (no tmp+rename): a torn checkpoint
// is expected under crash injection and the chain simply falls back
// to the previous one, which is why at least two are retained.
type checkpoint struct {
	Seq       int64 // last batch sequence folded into Img
	Seg, Off  int64 // WAL position just past batch Seq
	Watermark int64 // event-time watermark at the snapshot
	Img       *core.StateImage
}

// encodeCheckpoint renders ck into its file representation.
func encodeCheckpoint(ck *checkpoint) []byte {
	var hdr []byte
	for _, v := range []int64{checkpointVersion, ck.Seq, ck.Seg, ck.Off, ck.Watermark} {
		hdr = frame.AppendVarint(hdr, v)
	}
	out := frame.Append(nil, hdr)
	return append(out, core.FramedImage(ck.Img)...)
}

// decodeCheckpoint parses a checkpoint file body. seglog.Recover
// classifies the file with frame.ScanTail first (two clean frames
// spanning the file); this decodes them.
func decodeCheckpoint(b []byte) (*checkpoint, error) {
	hdr, n, err := frame.Next(b)
	if err != nil {
		return nil, err
	}
	c := frame.NewCursor(hdr)
	version := c.Varint()
	ck := &checkpoint{Seq: c.Varint(), Seg: c.Varint(), Off: c.Varint(), Watermark: c.Varint()}
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadCheckpoint, err)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadCheckpoint, version, checkpointVersion)
	}
	if ck.Img, err = core.DecodeFramedImage(b[n:]); err != nil {
		return nil, err
	}
	return ck, nil
}
