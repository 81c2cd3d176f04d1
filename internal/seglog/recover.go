package seglog

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/frame"
)

// Options carry the values each caller already configures.
type Options struct {
	Dir       string // created if absent
	SealBytes int64  // seal the open segment once it reaches this size
	Retain    int    // newest images kept (with the segments they need); >= 1
	Fail      *Failpoints
}

// Replay is the caller's half of recovery: the decoders for what the
// layer stores opaquely. Both are two-step — decode now, mutate only
// when the returned function runs — so Recover checks an id before any
// state changes.
type Replay struct {
	// Image decodes an image file whose frames verified whole. An error
	// discards the file as corrupt and recovery falls back to the next
	// older image; restore installs the image and its error is fatal.
	Image func(data []byte) (ref ImageRef, restore func() error, err error)
	// Record decodes one record payload (aliasing the read buffer) and
	// returns the id it carries; apply replays it. An error is fatal.
	Record func(payload []byte) (id int64, apply func(), err error)
}

// Info describes what Recover had to do to reach a consistent state.
// ReadBytes counts only segment bytes actually read — the post-image
// suffix — never segments the restored image already subsumes.
type Info struct {
	Image         ImageRef // restored image; zero = none
	NextID        int64    // id the next appended record carries
	Replayed      int64    // records replayed behind the image
	ReadBytes     int64
	SkippedBytes  int64 // size of segments wholly before the image
	TornTails     int64
	ImagesTorn    int64 // images discarded on the way to a good one
	ImagesCorrupt int64
	DirSyncs      int64 // directory fsyncs for entries Recover created
}

// Recover brings o.Dir to a consistent state and opens it for
// appending: restore the newest good image (walking back past torn or
// corrupt ones), replay the segment suffix behind it asserting
// record-id contiguity, truncate a torn tail on the final segment
// only, and refuse over corruption or a torn tail in a sealed segment.
func Recover(lay *Layout, o Options, rp Replay) (*Log, Info, error) {
	var info Info
	if _, err := os.Stat(o.Dir); err != nil {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, info, err
		}
		if err := syncDir(filepath.Dir(o.Dir)); err != nil {
			return nil, info, err
		}
		info.DirSyncs++
	}
	l := &Log{lay: lay, o: o}
	if err := l.restoreImage(rp, &info); err != nil {
		return nil, info, err
	}
	img, restored := info.Image, len(l.retained) > 0
	info.NextID = img.ID + 1

	segs, err := lay.Segments(o.Dir)
	if err != nil {
		return nil, info, err
	}
	startSeg, startOff := int64(1), int64(0)
	switch {
	case restored && len(segs) == 0:
		return nil, info, fmt.Errorf("%s: image %d references segment %s but no segment exists", lay.Name, img.ID, lay.SegName(img.Seg))
	case restored:
		startSeg, startOff = img.Seg, img.Off
	case len(segs) > 0:
		startSeg = segs[0]
	}

	l.st.Seg, l.st.Off = startSeg, startOff
	sawStart := len(segs) == 0 // vacuously fine on a fresh directory
	prev := int64(-1)
	for _, idx := range segs {
		path := filepath.Join(o.Dir, lay.SegName(idx))
		if idx < startSeg {
			if st, err := os.Stat(path); err == nil {
				info.SkippedBytes += st.Size()
			}
			continue
		}
		off0 := int64(0)
		if idx == startSeg {
			sawStart = true
			off0 = startOff
		} else if prev >= 0 && idx != prev+1 {
			return nil, info, fmt.Errorf("%s: gap: segment %s follows %s", lay.Name, lay.SegName(idx), lay.SegName(prev))
		}
		prev = idx

		data, err := readSuffix(path, off0)
		if err != nil {
			return nil, info, err
		}
		info.ReadBytes += int64(len(data))
		var replayErr error
		res := frame.ScanTail(data, func(p []byte) {
			if replayErr != nil {
				return
			}
			id, apply, err := rp.Record(p)
			switch {
			case err != nil:
				replayErr = fmt.Errorf("%w (segment %s)", err, lay.SegName(idx))
			case id != info.NextID:
				replayErr = fmt.Errorf("%s: replay expected record %d, found %d in %s", lay.Name, info.NextID, id, lay.SegName(idx))
			default:
				apply()
				info.Replayed++
				info.NextID++
			}
		})
		if replayErr != nil {
			return nil, info, replayErr
		}
		switch {
		case res.Reason == frame.ScanClean:
		case idx == segs[len(segs)-1] && res.Reason == frame.ScanTorn:
			if err := os.Truncate(path, off0+res.Good); err != nil {
				return nil, info, err
			}
			info.TornTails++
		default:
			return nil, info, &SegmentError{Log: lay.Name, Segment: lay.SegName(idx), Offset: off0 + res.Good, Reason: res.Reason}
		}
		l.st.Seg, l.st.Off = idx, off0+res.Good
	}
	if !sawStart {
		return nil, info, fmt.Errorf("%s: image %d references missing segment %s", lay.Name, img.ID, lay.SegName(startSeg))
	}

	// Only a directory with no segment at all has the open segment
	// created here; its directory entry must be durable before the
	// first record in it is acknowledged.
	f, err := os.OpenFile(filepath.Join(o.Dir, lay.SegName(l.st.Seg)), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return nil, info, err
	}
	if _, err := f.Seek(l.st.Off, 0); err != nil {
		f.Close()
		return nil, info, err
	}
	l.f = f
	l.st.NextID, l.img.last = info.NextID, img.ID
	if len(segs) == 0 {
		if err := syncDir(o.Dir); err != nil {
			f.Close()
			return nil, info, err
		}
		info.DirSyncs++
	}
	return l, info, nil
}

// restoreImage finds the newest image that loads whole — every frame
// verifying through frame.ScanTail, the frame count the Layout's, the
// caller's decoder accepting it — restores it and records it in info,
// counting the torn and corrupt ones it walked past. With no usable
// image info.Image stays zero and replay starts at the first segment.
func (l *Log) restoreImage(rp Replay, info *Info) error {
	ids, err := l.lay.Images(l.o.Dir)
	if err != nil {
		return err
	}
	for i := len(ids) - 1; i >= 0; i-- {
		name := l.lay.ImgName(ids[i])
		data, err := os.ReadFile(filepath.Join(l.o.Dir, name))
		if err != nil {
			return err
		}
		res := frame.ScanTail(data, nil)
		if res.Reason == frame.ScanClean && res.Frames >= 1 && (l.lay.ImgFrames == 0 || res.Frames == l.lay.ImgFrames) {
			if ref, restore, err := rp.Image(data); err == nil {
				if ref.ID != ids[i] || ref.Off < 0 {
					return fmt.Errorf("%s: image %s claims record %d at offset %d", l.lay.Name, name, ref.ID, ref.Off)
				}
				if err := restore(); err != nil {
					return err
				}
				info.Image = ref
				l.retained = append(l.retained, ref)
				return nil
			}
		}
		// Clean frames of the wrong shape, or contents that do not
		// decode, are corruption: only an unfinished frame is torn.
		if res.Reason == frame.ScanTorn {
			info.ImagesTorn++
		} else {
			info.ImagesCorrupt++
		}
	}
	return nil
}

// readSuffix reads path from offset off to EOF — the only bytes
// recovery touches in the segment holding the restored image, so
// ReadBytes covers exactly the post-image suffix.
func readSuffix(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off >= st.Size() {
		return nil, nil
	}
	buf := make([]byte, st.Size()-off)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}
