// Package seglog is the one segmented, framed, fsync-before-ack log
// under both durable services: the ingest WAL with its checkpoint
// chain and the jobstore commit log with its snapshot chain.
//
// A directory holds append segments <SegPrefix><%08d><SegExt> — one
// frame.Append frame per record, fsynced before Append returns, rolled
// to the next index once the open segment reaches the seal size — and
// images <ImgPrefix><%016d><ImgExt> of the caller's state, each
// recording the log position just past the last record it contains.
// Recover restores the newest image that loads whole, replays only the
// log suffix behind it, truncates a torn tail on the final segment and
// refuses (SegmentError) damage anywhere else.
//
// The layer owns every durable-layer decision that is not an encoding:
// files, framing and positions; record order — Append hands the next
// record its id and advances only when the record is durable, so ids
// are contiguous by construction and Recover's contiguity check is the
// other half of one rule; and what a failed write means — the first
// error out of Append, Seal, WriteImage or Close wedges the log (see
// Log.Err), and the services above report that as their own health
// instead of keeping a copy. Stats carries the position, the next id
// and the append and image counters, so callers count nothing twice.
// Callers own what is inside a record payload or an image (written
// over frame.Cursor) and hand Recover the decoders; the two of them
// differ only in a Layout constant.
package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/frame"
)

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point (fsync that never happened, seal cut
// short, image half-written). The log wedges on it like on any other
// failure; crash harnesses then reopen the directory like a fresh
// process would.
var ErrCrash = errors.New("seglog: injected crash")

// Layout names one caller's files and errors. It is a constant of the
// calling package, not configuration.
type Layout struct {
	// Name opens every error, e.g. "ingest: WAL".
	Name string
	// Segments are <SegPrefix><%08d><SegExt>, images
	// <ImgPrefix><%016d><ImgExt>.
	SegPrefix, SegExt string
	ImgPrefix, ImgExt string
	// ImgFrames is the exact number of frames in a whole image; 0
	// accepts any count of at least one.
	ImgFrames int
}

// SegName returns the file name of segment idx.
func (l *Layout) SegName(idx int64) string {
	return fmt.Sprintf("%s%08d%s", l.SegPrefix, idx, l.SegExt)
}

// ImgName returns the file name of the image taken at record id.
func (l *Layout) ImgName(id int64) string {
	return fmt.Sprintf("%s%016d%s", l.ImgPrefix, id, l.ImgExt)
}

// Segments returns the sorted segment indexes present in dir.
func (l *Layout) Segments(dir string) ([]int64, error) {
	return listIndexed(dir, l.SegPrefix, l.SegExt)
}

// Images returns the sorted image ids present in dir.
func (l *Layout) Images(dir string) ([]int64, error) {
	return listIndexed(dir, l.ImgPrefix, l.ImgExt)
}

// parseIndexed extracts the decimal index out of "<prefix><idx><ext>".
func parseIndexed(name, prefix, ext string) (int64, bool) {
	if len(name) <= len(prefix)+len(ext) ||
		name[:len(prefix)] != prefix || name[len(name)-len(ext):] != ext {
		return 0, false
	}
	var idx int64
	for _, c := range name[len(prefix) : len(name)-len(ext)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int64(c-'0')
	}
	return idx, true
}

// listIndexed returns the sorted indexes of dir entries matching
// <prefix><idx><ext>.
func listIndexed(dir, prefix, ext string) ([]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int64
	for _, e := range entries {
		if idx, ok := parseIndexed(e.Name(), prefix, ext); ok {
			idxs = append(idxs, idx)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	return idxs, nil
}

// Failpoints are test hooks for crash injection. All are optional; a
// nil Failpoints (or field) is a no-op.
type Failpoints struct {
	// TornAppend, if non-nil and returning n >= 0 for record id,
	// persists only the first n bytes of the frame and fails the
	// append — a torn write at a controlled offset.
	TornAppend func(id int64) int
	// BeforeSync fires before fsyncing record id's frame; a non-nil
	// error aborts the append after the (unsynced) write.
	BeforeSync func(id int64) error
	// BeforeSeal fires before sealing segment seg.
	BeforeSeal func(seg int64) error
	// TornImage, if non-nil and returning n >= 0 for the image at
	// record id, persists only the first n bytes of the image file and
	// fails — a torn image that recovery must fall back from.
	TornImage func(id int64) int
}

// SegmentError reports a damaged segment that recovery refuses to
// repair silently: corruption anywhere, or a torn tail somewhere other
// than the final (still-writable) segment.
type SegmentError struct {
	Log     string // the Layout's Name
	Segment string
	Offset  int64
	Reason  frame.ScanReason
}

// Error implements error.
func (e *SegmentError) Error() string {
	return fmt.Sprintf("%s segment %s damaged at offset %d (%s): acknowledged data cannot be reconstructed", e.Log, e.Segment, e.Offset, e.Reason)
}

// ImageRef identifies an image: the id of the last record it contains
// and the log position (segment, end offset) just past that record.
type ImageRef struct{ ID, Seg, Off int64 }

// Stats are the log's position and monotonic counters.
type Stats struct {
	Seg, Off                    int64 // open segment and its size
	NextID                      int64 // id the next appended record carries
	Seals, Syncs, AppendedBytes int64
	Images, ImageBytes          int64 // written by this process
	LastImage                   int64 // id of the newest image restored or written; 0 = none
}

// Log is the open log. Two sides with disjoint state: the append side
// (Append, Seal, Close, Abort, Stats) belongs to a single writer the
// caller serializes under its own mutex; the image side (WriteImage)
// belongs to a single image writer, which may be another goroutine
// running concurrently with appends. What the sides share — the sticky
// failure and the image counters — sits under mu.
type Log struct {
	lay *Layout
	o   Options

	f          *os.File
	st         Stats  // append side; the image fields live in img
	pbuf, fbuf []byte // payload and framed scratch

	retained []ImageRef // images this process restored or wrote, oldest first

	mu  sync.Mutex
	err error // first failure; see fail
	img struct{ n, bytes, last int64 }
}

// Stats returns the position and counters.
func (l *Log) Stats() Stats {
	st := l.st
	l.mu.Lock()
	st.Images, st.ImageBytes, st.LastImage = l.img.n, l.img.bytes, l.img.last
	l.mu.Unlock()
	return st
}

// Err returns the failure the log is wedged on, nil while it is
// healthy. The first error out of Append, Seal, WriteImage or Close
// sticks: after a write or an fsync has failed, what the file holds is
// unknown (a failed fsync may have dropped the dirty pages and cleared
// the error, so a retry that "succeeds" proves nothing), and the only
// safe continuation is a fresh process running Recover. Every later
// Append, Seal and WriteImage therefore returns that first error
// without touching the directory, on whichever side it happened.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// fail makes err sticky unless an earlier failure already is, and
// returns the sticky one.
func (l *Log) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// guarded runs op unless the log is wedged, and wedges it on op's
// error: the failure rule, stated once.
func (l *Log) guarded(op func() error) error {
	if err := l.Err(); err != nil {
		return err
	}
	if err := op(); err != nil {
		return l.fail(err)
	}
	return nil
}

// Append gives the next record its id, has encode append the record's
// payload (which carries the id) to dst, frames it, writes and fsyncs
// it — the acknowledgment point — and returns the id with the log
// position just past the record (its segment and end offset): the
// position an image containing this record records. Ids are
// contiguous: only a successful append advances Stats().NextID. The
// segment rolls after the append, so the returned position always
// refers to the record's own segment.
func (l *Log) Append(encode func(dst []byte, id int64) []byte) (id, seg, off int64, err error) {
	id = l.st.NextID
	if err := l.guarded(func() error {
		l.pbuf = encode(l.pbuf[:0], id)
		l.fbuf = frame.Append(l.fbuf[:0], l.pbuf)
		return l.write(id)
	}); err != nil {
		return 0, 0, 0, err
	}
	l.st.NextID++
	l.st.Syncs++
	l.st.AppendedBytes += int64(len(l.fbuf))
	l.st.Off += int64(len(l.fbuf))
	seg, off = l.st.Seg, l.st.Off
	if l.st.Off >= l.o.SealBytes {
		err = l.Seal()
	}
	return id, seg, off, err
}

// write puts record id's frame (l.fbuf) into the open segment and
// fsyncs it, or fails the way a failpoint says.
func (l *Log) write(id int64) error {
	fp := l.o.Fail
	if fp != nil && fp.TornAppend != nil {
		if n := fp.TornAppend(id); n >= 0 {
			l.f.Write(l.fbuf[:min(n, len(l.fbuf))])
			l.f.Sync()
			return fmt.Errorf("%s: torn append of record %d: %w", l.lay.Name, id, ErrCrash)
		}
	}
	if _, err := l.f.Write(l.fbuf); err != nil {
		return err
	}
	if fp != nil && fp.BeforeSync != nil {
		if err := fp.BeforeSync(id); err != nil {
			return err
		}
	}
	return l.f.Sync()
}

// Seal syncs and closes the open segment and opens the next one.
// Sealed segments are immutable: recovery treats any damage in them
// as corruption, never as a trimmable torn tail.
func (l *Log) Seal() error { return l.guarded(l.seal) }

func (l *Log) seal() error {
	if fp := l.o.Fail; fp != nil && fp.BeforeSeal != nil {
		if err := fp.BeforeSeal(l.st.Seg); err != nil {
			return err
		}
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.st.Seals++
	l.st.Seg++
	l.st.Off = 0
	f, err := os.OpenFile(filepath.Join(l.o.Dir, l.lay.SegName(l.st.Seg)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	return syncDir(l.o.Dir)
}

// Close flushes and closes the open segment (the clean-shutdown path;
// the segment stays appendable on the next boot). A wedged log is
// closed without the flush and returns what it is wedged on.
func (l *Log) Close() error {
	if l.f == nil {
		return l.Err()
	}
	f := l.f
	l.f = nil
	if err := l.Err(); err != nil {
		f.Close()
		return err
	}
	if err := syncClose(f); err != nil {
		return l.fail(err)
	}
	return nil
}

// Abort closes the segment file without syncing — the crash-test
// stand-in for the process dying — and wedges the log.
func (l *Log) Abort() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.fail(fmt.Errorf("%s: aborted", l.lay.Name))
}

// WriteImage persists data as the image ref names, in place (no
// tmp+rename: a torn image is expected under crash injection and
// recovery falls back to the previous one, which is why callers retain
// at least two), fsyncing the file and the directory, then prunes.
func (l *Log) WriteImage(ref ImageRef, data []byte) error {
	if err := l.guarded(func() error { return l.writeImage(ref, data) }); err != nil {
		return err
	}
	l.mu.Lock()
	l.img.n++
	l.img.bytes += int64(len(data))
	l.img.last = ref.ID
	l.mu.Unlock()
	l.retained = append(l.retained, ref)
	if len(l.retained) > l.o.Retain {
		l.retained = l.retained[len(l.retained)-l.o.Retain:]
	}
	l.prune()
	return nil
}

func (l *Log) writeImage(ref ImageRef, data []byte) error {
	path := filepath.Join(l.o.Dir, l.lay.ImgName(ref.ID))
	if fp := l.o.Fail; fp != nil && fp.TornImage != nil {
		if n := fp.TornImage(ref.ID); n >= 0 {
			os.WriteFile(path, data[:min(n, len(data))], 0o644)
			return fmt.Errorf("%s: torn image at record %d: %w", l.lay.Name, ref.ID, ErrCrash)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := syncClose(f); err != nil {
		return err
	}
	return syncDir(l.o.Dir)
}

// prune keeps the newest Retain images and deletes older image files
// plus segments wholly covered by every retained image (index below
// the oldest retained image's segment — that segment itself is always
// kept, since replay may start mid-file inside it). Best-effort:
// deletion failures are ignored; the files are garbage, not state.
func (l *Log) prune() {
	ids, err := l.lay.Images(l.o.Dir)
	if err != nil || len(ids) <= l.o.Retain {
		return
	}
	for _, id := range ids[:len(ids)-l.o.Retain] {
		os.Remove(filepath.Join(l.o.Dir, l.lay.ImgName(id)))
	}
	segs, err := l.lay.Segments(l.o.Dir)
	if err != nil {
		return
	}
	for _, idx := range segs {
		if idx < l.retained[0].Seg {
			os.Remove(filepath.Join(l.o.Dir, l.lay.SegName(idx)))
		}
	}
}

// syncDir fsyncs a directory so creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return syncClose(d)
}

// syncClose fsyncs and closes f, reporting the first failure.
func syncClose(f *os.File) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
