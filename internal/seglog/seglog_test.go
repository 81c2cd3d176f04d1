package seglog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
)

var testLayout = Layout{
	Name:      "seglog test",
	SegPrefix: "t-", SegExt: ".seg",
	ImgPrefix: "img-", ImgExt: ".im",
	ImgFrames: 1,
}

// sumState is the trivial state machine the layer is tested under: the
// running sum of the record ids applied, and how many.
type sumState struct{ sum, n int64 }

// recordPayload is record id's payload: the id, then id%5 filler bytes
// so frames differ in size and seals land at uneven offsets.
func recordPayload(id int64) []byte {
	p := binary.AppendUvarint(nil, uint64(id))
	return append(p, bytes.Repeat([]byte{0xAB}, int(id%5))...)
}

func imageData(ref ImageRef, st sumState) []byte {
	var b []byte
	for _, v := range []int64{ref.ID, ref.Seg, ref.Off, st.sum, st.n} {
		b = binary.AppendVarint(b, v)
	}
	return frame.Append(nil, b)
}

// replay decodes the formats above into st.
func (st *sumState) replay() Replay {
	return Replay{
		Image: func(data []byte) (ImageRef, func() error, error) {
			p, _, err := frame.Next(data)
			if err != nil {
				return ImageRef{}, nil, err
			}
			var f [5]int64
			for i := range f {
				v, n := binary.Varint(p)
				if n <= 0 {
					return ImageRef{}, nil, errors.New("short image")
				}
				f[i], p = v, p[n:]
			}
			if len(p) != 0 {
				return ImageRef{}, nil, errors.New("trailing image bytes")
			}
			return ImageRef{ID: f[0], Seg: f[1], Off: f[2]}, func() error {
				*st = sumState{sum: f[3], n: f[4]}
				return nil
			}, nil
		},
		Record: func(p []byte) (int64, func(), error) {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return 0, nil, errors.New("bad record")
			}
			id := int64(u)
			return id, func() { st.sum += id; st.n++ }, nil
		},
	}
}

func testOptions(dir string) Options {
	return Options{Dir: dir, SealBytes: 40, Retain: 1 << 20}
}

// appendNext appends the next record under the id the log gives it.
func appendNext(l *Log) (id, seg, off int64, err error) {
	return l.Append(func(dst []byte, id int64) []byte { return append(dst, recordPayload(id)...) })
}

// appendRange appends records [from, to] and applies them to st,
// writing an image after every imgEvery-th record.
func appendRange(t testing.TB, l *Log, st *sumState, from, to, imgEvery int64) {
	t.Helper()
	for want := from; want <= to; want++ {
		id, seg, off, err := appendNext(l)
		if err != nil || id != want {
			t.Fatalf("append %d: got id %d, %v", want, id, err)
		}
		st.sum += id
		st.n++
		if imgEvery > 0 && id%imgEvery == 0 {
			ref := ImageRef{ID: id, Seg: seg, Off: off}
			if err := l.WriteImage(ref, imageData(ref, *st)); err != nil {
				t.Fatalf("image %d: %v", id, err)
			}
		}
	}
}

// TestCrashSweep is the layer's own exhaustive crash sweep: a
// multi-segment log with the whole image history is cut at every byte
// offset, with every suffix of the images durable by then dropped, and
// each such directory must recover to exactly the never-crashed state
// after the records whole within the cut — reading exactly the bytes
// behind the image it restored, truncating exactly the torn tails —
// then carry on to the full run's state and reopen as a no-op.
func TestCrashSweep(t *testing.T) {
	const n, imgEvery = 36, 4
	src := t.TempDir()
	var st sumState
	l, _, err := Recover(&testLayout, testOptions(src), st.replay())
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, l, &st, 1, n, imgEvery)
	l.Abort()
	final := st

	// The layout as global offsets, from the files themselves.
	segs, err := testLayout.Segments(src)
	if err != nil || len(segs) < 4 {
		t.Fatalf("want several segments, have %v (%v)", segs, err)
	}
	segStart, segData := map[int64]int64{}, map[int64][]byte{}
	recEnd := []int64{0} // recEnd[id] = global offset just past record id
	var total int64
	for _, idx := range segs {
		data := mustRead(t, filepath.Join(src, testLayout.SegName(idx)))
		segStart[idx], segData[idx] = total, data
		for off := 0; off < len(data); {
			_, sz, err := frame.Next(data[off:])
			if err != nil {
				t.Fatal(err)
			}
			off += sz
			recEnd = append(recEnd, total+int64(off))
		}
		total += int64(len(data))
	}
	if len(recEnd) != n+1 {
		t.Fatalf("found %d records on disk, wrote %d", len(recEnd)-1, n)
	}

	trials := 0
	for cut := int64(0); cut <= total; cut++ {
		var k int64 // records whole within the cut
		for k < n && recEnd[k+1] <= cut {
			k++
		}
		durable := k / imgEvery // images written by then: ids imgEvery, 2·imgEvery, …
		for drop := int64(0); drop <= durable; drop++ {
			trials++
			dir := t.TempDir()
			for _, idx := range segs {
				if g, data := segStart[idx], segData[idx]; cut > g {
					mustWrite(t, filepath.Join(dir, testLayout.SegName(idx)), data[:min(cut-g, int64(len(data)))])
				}
			}
			for i := int64(1); i <= durable-drop; i++ {
				name := testLayout.ImgName(i * imgEvery)
				mustWrite(t, filepath.Join(dir, name), mustRead(t, filepath.Join(src, name)))
			}
			imgID := (durable - drop) * imgEvery
			label := fmt.Sprintf("cut %d drop %d", cut, drop)

			var got sumState
			l, info, err := Recover(&testLayout, testOptions(dir), got.replay())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want := (sumState{sum: k * (k + 1) / 2, n: k}); got != want {
				t.Fatalf("%s: recovered %+v, oracle %+v", label, got, want)
			}
			if info.Image.ID != imgID || info.NextID != k+1 || info.Replayed != k-imgID {
				t.Fatalf("%s: %+v, want image %d next %d", label, info, imgID, k+1)
			}
			if info.ReadBytes != cut-recEnd[imgID] {
				t.Fatalf("%s: ReadBytes %d, want the post-image suffix %d", label, info.ReadBytes, cut-recEnd[imgID])
			}
			wantTorn := int64(0)
			if cut != recEnd[k] {
				wantTorn = 1
			}
			if info.TornTails != wantTorn || info.ImagesTorn+info.ImagesCorrupt != 0 {
				t.Fatalf("%s: %+v, want %d torn tails", label, info, wantTorn)
			}

			appendRange(t, l, &got, k+1, n, 0)
			if got != final {
				t.Fatalf("%s: resumed run ended at %+v, want %+v", label, got, final)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			var again sumState
			l2, info2, err := Recover(&testLayout, testOptions(dir), again.replay())
			if err != nil {
				t.Fatalf("%s: second recovery: %v", label, err)
			}
			if again != final || info2.TornTails != 0 || info2.NextID != n+1 || l2.Stats().Seg != l.Stats().Seg || l2.Stats().Off != l.Stats().Off {
				t.Fatalf("%s: second recovery %+v %+v at %+v, want %+v at %+v", label, again, info2, l2.Stats(), final, l.Stats())
			}
			l2.Abort()
		}
	}
	t.Logf("%d crash states over %d bytes in %d segments", trials, total, len(segs))
}

// TestSealedDamageRefused: a torn or corrupt frame anywhere but the
// tail of the final segment is acknowledged data lost, never a tail to
// trim, and a missing sealed segment is a gap.
func TestSealedDamageRefused(t *testing.T) {
	src := t.TempDir()
	var st sumState
	l, _, err := Recover(&testLayout, testOptions(src), st.replay())
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, l, &st, 1, 20, 0)
	l.Abort()
	first := testLayout.SegName(1)
	data := mustRead(t, filepath.Join(src, first))
	damage := map[string]func(path string) error{
		"corrupt": func(path string) error {
			flipped := append([]byte(nil), data...)
			flipped[len(flipped)/2] ^= 0x10
			return os.WriteFile(path, flipped, 0o644)
		},
		"torn": func(path string) error { return os.Truncate(path, int64(len(data))-2) },
	}
	for name, apply := range damage {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if err := apply(filepath.Join(dir, first)); err != nil {
			t.Fatal(err)
		}
		_, _, err := Recover(&testLayout, testOptions(dir), new(sumState).replay())
		var segErr *SegmentError
		if !errors.As(err, &segErr) || segErr.Segment != first || segErr.Offset >= int64(len(data)) {
			t.Fatalf("%s sealed segment: %v", name, err)
		}
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, testLayout.SegName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(&testLayout, testOptions(dir), new(sumState).replay()); err == nil {
		t.Fatal("missing sealed segment accepted")
	}
}

// TestImageChain: torn and corrupt images are walked past and counted
// apart, an image under the wrong name is refused, and retention keeps
// the newest images plus every segment the oldest of them needs.
func TestImageChain(t *testing.T) {
	dir := t.TempDir()
	var st sumState
	opts := testOptions(dir)
	opts.Retain = 2
	l, _, err := Recover(&testLayout, opts, st.replay())
	if err != nil {
		t.Fatal(err)
	}
	appendRange(t, l, &st, 1, 30, 5)
	l.Abort()
	imgs, _ := testLayout.Images(dir)
	if len(imgs) != 2 || imgs[0] != 25 || imgs[1] != 30 {
		t.Fatalf("retained images %v, want [25 30]", imgs)
	}
	segs, _ := testLayout.Segments(dir)
	var oldest sumState
	ref, _, err := oldest.replay().Image(mustRead(t, filepath.Join(dir, testLayout.ImgName(25))))
	if err != nil || segs[0] != ref.Seg || ref.Seg == 1 {
		t.Fatalf("segments %v after pruning, oldest retained image needs %d (%v)", segs, ref.Seg, err)
	}

	newest := filepath.Join(dir, testLayout.ImgName(30))
	whole := mustRead(t, newest)
	flipped := append([]byte(nil), whole...)
	flipped[4] ^= 1
	for _, tc := range []struct {
		name          string
		data          []byte
		torn, corrupt int64
	}{
		{"torn", whole[:len(whole)-3], 1, 0},
		{"flipped", flipped, 0, 1},
		{"empty", nil, 0, 1},
		{"extra frame", frame.Append(append([]byte(nil), whole...), []byte("x")), 0, 1},
	} {
		mustWrite(t, newest, tc.data)
		var got sumState
		l, info, err := Recover(&testLayout, opts, got.replay())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		l.Abort()
		if info.Image.ID != 25 || info.ImagesTorn != tc.torn || info.ImagesCorrupt != tc.corrupt || got != st {
			t.Fatalf("%s: %+v state %+v, want fallback to image 25 and state %+v", tc.name, info, got, st)
		}
	}
	mustWrite(t, newest, mustRead(t, filepath.Join(dir, testLayout.ImgName(25))))
	if _, _, err := Recover(&testLayout, opts, new(sumState).replay()); err == nil {
		t.Fatal("image 25 under image 30's name accepted")
	}
}

func mustRead(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustWrite(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailpoints: each injected crash surfaces ErrCrash and leaves a
// directory that recovers to the records acknowledged before it — and
// wedges the log: every later Append, Seal and WriteImage returns that
// first error, hands out no id, and leaves the directory's bytes alone.
func TestFailpoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail Failpoints
		want int64 // records recovered
	}{
		{"torn append", Failpoints{TornAppend: func(id int64) int {
			if id == 7 {
				return 3
			}
			return -1
		}}, 6},
		{"before sync", Failpoints{BeforeSync: func(id int64) error {
			if id == 7 {
				return ErrCrash
			}
			return nil
		}}, 7}, // written whole, never acknowledged: it may survive
		// Record 5 crosses the seal size: fsynced, then the seal dies.
		{"before seal", Failpoints{BeforeSeal: func(int64) error { return ErrCrash }}, 5},
		{"torn image", Failpoints{TornImage: func(int64) int { return 2 }}, 5},
	} {
		dir := t.TempDir()
		opts := testOptions(dir)
		opts.Fail = &tc.fail
		var st sumState
		l, _, err := Recover(&testLayout, opts, st.replay())
		if err != nil {
			t.Fatal(err)
		}
		for err == nil && l.Stats().NextID <= 10 {
			var id, seg, off int64
			if id, seg, off, err = appendNext(l); err == nil && id == 5 {
				ref := ImageRef{ID: id, Seg: seg, Off: off}
				err = l.WriteImage(ref, imageData(ref, sumState{15, 5}))
			}
		}
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("%s: %v, want ErrCrash", tc.name, err)
		}

		// The failure sticks. Injection is off from here, so a log that
		// forgot it would succeed below and move the directory.
		first, before, at := err, dirBytes(t, dir), l.Stats()
		if l.Err() != first {
			t.Fatalf("%s: Err() = %v, want the first failure %v", tc.name, l.Err(), first)
		}
		tc.fail = Failpoints{}
		ref := ImageRef{ID: at.NextID - 1, Seg: at.Seg, Off: at.Off}
		for i := 0; i < 3; i++ {
			if _, _, _, err := appendNext(l); err != first {
				t.Fatalf("%s: append on the wedged log: %v, want %v", tc.name, err, first)
			}
			if err := l.WriteImage(ref, imageData(ref, st)); err != first {
				t.Fatalf("%s: image on the wedged log: %v, want %v", tc.name, err, first)
			}
			if err := l.Seal(); err != first {
				t.Fatalf("%s: seal on the wedged log: %v, want %v", tc.name, err, first)
			}
		}
		if got := l.Stats(); got != at {
			t.Fatalf("%s: wedged log moved from %+v to %+v", tc.name, at, got)
		}
		if err := l.Close(); err != first {
			t.Fatalf("%s: close of the wedged log: %v, want %v", tc.name, err, first)
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the wedged log changed the directory", tc.name)
		}

		var got sumState
		l2, info, err := Recover(&testLayout, testOptions(dir), got.replay())
		if err != nil {
			t.Fatalf("%s: recovery: %v", tc.name, err)
		}
		l2.Abort()
		if want := (sumState{sum: tc.want * (tc.want + 1) / 2, n: tc.want}); got != want || info.NextID != tc.want+1 {
			t.Fatalf("%s: recovered %+v (%+v), want the never-failed prefix %+v", tc.name, got, info, want)
		}
	}
}

// dirBytes reads every file of dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		out[e.Name()] = string(mustRead(t, filepath.Join(dir, e.Name())))
	}
	return out
}

// TestImageFailureWedgesAppends: the failure is shared by the log's
// two sides. An image write fails on the image goroutine while the
// writer keeps appending; once WriteImage has returned, every append
// refuses with that error, and what was acknowledged before recovers.
func TestImageFailureWedgesAppends(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Fail = &Failpoints{TornImage: func(int64) int { return 1 }}
	l, _, err := Recover(&testLayout, opts, new(sumState).replay())
	if err != nil {
		t.Fatal(err)
	}
	_, seg, off, err := appendNext(l)
	if err != nil {
		t.Fatal(err)
	}
	imgErr := make(chan error)
	go func() {
		ref := ImageRef{ID: 1, Seg: seg, Off: off}
		imgErr <- l.WriteImage(ref, imageData(ref, sumState{1, 1}))
	}()
	acked := int64(1)
	var first, appendErr error
	for appendErr == nil {
		select {
		case first = <-imgErr:
			imgErr = nil // received once; from here the log must refuse
		default:
		}
		var id int64
		if id, _, _, appendErr = appendNext(l); appendErr == nil {
			if acked = id; first != nil {
				t.Fatalf("record %d acknowledged after WriteImage failed with %v", id, first)
			}
		}
	}
	if first == nil {
		first = <-imgErr
	}
	if !errors.Is(first, ErrCrash) || appendErr != first || l.Err() != first {
		t.Fatalf("image failed with %v, append with %v, Err() = %v: want one ErrCrash", first, appendErr, l.Err())
	}
	l.Abort()
	var got sumState
	l2, info, err := Recover(&testLayout, testOptions(dir), got.replay())
	if err != nil {
		t.Fatal(err)
	}
	l2.Abort()
	// The refused append may be whole on disk: its seal is what refused.
	if got.n < acked || got.n > acked+1 || info.ImagesTorn != 1 {
		t.Fatalf("recovered %d records (%+v), want the %d acknowledged past one torn image", got.n, info, acked)
	}
}

// TestDirSyncOnCreate pins the durability of directory entries the
// layer creates at open: a fresh directory costs one fsync of its
// parent (the directory's own entry) and one of itself (the first
// segment's entry) before anything can be acknowledged into that
// segment; an existing empty directory only the latter; a reopen none.
func TestDirSyncOnCreate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	open := func() (*Log, Info) {
		l, info, err := Recover(&testLayout, testOptions(dir), new(sumState).replay())
		if err != nil {
			t.Fatal(err)
		}
		return l, info
	}
	l, info := open()
	if info.DirSyncs != 2 {
		t.Fatalf("fresh directory: %d directory fsyncs, want 2 (parent, then the first segment's entry)", info.DirSyncs)
	}
	if _, _, _, err := appendNext(l); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != 1 {
		t.Fatalf("append path counted %d fsyncs, want 1: directory fsyncs stay out of Syncs", st.Syncs)
	}
	l.Abort()
	if l, info = open(); info.DirSyncs != 0 {
		t.Fatalf("reopen: %d directory fsyncs, want 0", info.DirSyncs)
	}
	l.Abort()

	dir = t.TempDir() // exists, empty
	if l, info = open(); info.DirSyncs != 1 {
		t.Fatalf("existing empty directory: %d directory fsyncs, want 1", info.DirSyncs)
	}
	l.Abort()
}

// TestImagesConcurrentWithAppends runs the two sides the way ingest
// does — appends on one goroutine, images and pruning on another —
// for the race detector, and requires the result to recover.
func TestImagesConcurrentWithAppends(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	opts := testOptions(dir)
	opts.Retain = 2
	l, _, err := Recover(&testLayout, opts, new(sumState).replay())
	if err != nil {
		t.Fatal(err)
	}
	type acked struct {
		ref ImageRef
		st  sumState
	}
	ch := make(chan acked)
	done := make(chan error, 1)
	go func() {
		var err error
		for a := range ch {
			if err == nil && a.ref.ID%10 == 0 {
				err = l.WriteImage(a.ref, imageData(a.ref, a.st))
			}
		}
		done <- err
	}()
	var st sumState
	for range n {
		id, seg, off, err := appendNext(l)
		if err != nil {
			t.Fatal(err)
		}
		st.sum += id
		st.n++
		ch <- acked{ImageRef{ID: id, Seg: seg, Off: off}, st}
	}
	close(ch)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l.Abort()
	var got sumState
	l2, info, err := Recover(&testLayout, opts, got.replay())
	if err != nil {
		t.Fatal(err)
	}
	l2.Abort()
	if got != st || info.Image.ID != n || info.ReadBytes != 0 {
		t.Fatalf("recovered %+v (%+v), want %+v from image %d with nothing behind it", got, info, st, n)
	}
}
