package seglog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/frame"
)

// FuzzRecover feeds Recover arbitrary bytes where a crash leaves them
// — as the final segment and as the newest image — behind a sealed
// segment and an older image that are sound. Whatever the bytes,
// Recover must not panic, must hand the caller only payloads that sit
// in the files inside a frame whose CRC verifies, must never place a
// SegmentError's offset past the end of the file, nor the log's end
// (unless a whole image vouches for that position: the jobstore sweep
// cuts the log below its newest snapshot and holds that the snapshot
// still stands), and when it succeeds must leave a directory a second
// Recover changes nothing in.
func FuzzRecover(f *testing.F) {
	var tail []byte // records 4..10, as the final segment would hold them
	var end9 int64
	for id := int64(4); id <= 10; id++ {
		if id == 10 {
			end9 = int64(len(tail))
		}
		tail = frame.Append(tail, recordPayload(id))
	}
	ref9 := ImageRef{ID: 9, Seg: 2, Off: end9}
	img9 := imageData(ref9, sumState{45, 9})
	f.Add(tail, img9)
	f.Add(tail[:len(tail)-3], img9[:len(img9)-2])
	f.Add(tail[:end9], []byte("not an image"))
	f.Add([]byte{}, []byte{})
	f.Add(tail[:end9-1], img9) // a whole image placed past its segment's end
	f.Add(tail, imageData(ImageRef{ID: 9, Seg: 2, Off: -1 << 40}, sumState{45, 9}))
	f.Add(append(append([]byte(nil), tail[:end9]...), frame.Magic, 0x7f, 1, 2), frame.Append(img9, nil))
	flipped := append([]byte(nil), tail...)
	flipped[len(flipped)/2] ^= 4
	f.Add(flipped, imageData(ImageRef{ID: 9, Seg: 1, Off: 5}, sumState{45, 9}))

	f.Fuzz(func(t *testing.T, seg, img []byte) {
		dir := t.TempDir()
		var sealed []byte
		for id := int64(1); id <= 3; id++ {
			sealed = frame.Append(sealed, recordPayload(id))
		}
		ref2 := ImageRef{ID: 2, Seg: 1, Off: int64(len(frame.Append(frame.Append(nil, recordPayload(1)), recordPayload(2))))}
		mustWrite(t, filepath.Join(dir, testLayout.SegName(1)), sealed)
		mustWrite(t, filepath.Join(dir, testLayout.SegName(2)), seg)
		mustWrite(t, filepath.Join(dir, testLayout.ImgName(2)), imageData(ref2, sumState{3, 2}))
		mustWrite(t, filepath.Join(dir, testLayout.ImgName(9)), img)

		var st sumState
		rp := st.replay()
		checked := rp
		checked.Record = func(p []byte) (int64, func(), error) {
			if fr := frame.Append(nil, p); !bytes.Contains(sealed, fr) && !bytes.Contains(seg, fr) {
				t.Fatalf("replayed payload %x sits in no verified frame of either segment", p)
			}
			return rp.Record(p)
		}
		checked.Image = func(data []byte) (ImageRef, func() error, error) {
			if res := frame.ScanTail(data, nil); res.Reason != frame.ScanClean || res.Frames != testLayout.ImgFrames {
				t.Fatalf("decoder handed an image that scans %+v", res)
			}
			return rp.Image(data)
		}
		size := func(name string) int64 {
			fi, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			return fi.Size()
		}

		l, info, err := Recover(&testLayout, testOptions(dir), checked)
		if err != nil {
			var segErr *SegmentError
			if errors.As(err, &segErr) && segErr.Offset > size(segErr.Segment) {
				t.Fatalf("SegmentError offset past the data: %v", err)
			}
			return
		}
		end := l.Stats()
		l.Abort()
		if vouched := end.Seg == info.Image.Seg && end.Off == info.Image.Off; !vouched && end.Off > size(testLayout.SegName(end.Seg)) {
			t.Fatalf("log opened at %+v, past the %d bytes of its segment", end, size(testLayout.SegName(end.Seg)))
		}
		before := dirContents(t, dir)

		var st2 sumState
		l2, info2, err := Recover(&testLayout, testOptions(dir), st2.replay())
		if err != nil {
			t.Fatalf("second recovery of a repaired directory: %v", err)
		}
		l2.Abort()
		if st2 != st || info2.NextID != info.NextID || info2.Image != info.Image || info2.TornTails != 0 ||
			l2.Stats() != end || !bytes.Equal(dirContents(t, dir), before) {
			t.Fatalf("second recovery was not a no-op:\n first %+v %+v at %+v\nsecond %+v %+v at %+v", st, info, end, st2, info2, l2.Stats())
		}
	})
}

// dirContents flattens a directory into name/length/bytes records.
func dirContents(t testing.TB, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, e := range entries {
		data := mustRead(t, filepath.Join(dir, e.Name()))
		out = append(out, e.Name()...)
		out = frame.Append(out, data)
	}
	return out
}
