package core

import (
	"errors"

	"repro/internal/frame"
	"repro/internal/frequent"
)

// ErrBadImage reports a checkpoint image blob that does not decode.
// With checksums on, the frame layer catches corruption before the
// codec runs; the codec still validates so a damaged image can never
// be half-applied.
var ErrBadImage = errors.New("core: malformed state image")

// MarshalImage serializes a StateImage into one flat blob with an
// exact inverse: checkpoint images travel (and are damaged, under
// fault injection) as byte blobs, framed by the engine with a CRC32C
// so torn tails and bit flips are detected on restore.
func MarshalImage(img *StateImage) []byte {
	var out []byte
	out = appendBlob(out, img.Table)
	out = frame.AppendVarint(out, int64(img.TableKeys))
	out = frame.AppendVarint(out, int64(len(img.Sketch)))
	for _, sv := range img.Sketch {
		out = appendBlob(out, sv.Key)
		out = appendBlob(out, sv.State)
		out = frame.AppendVarint(out, sv.C)
		out = frame.AppendVarint(out, sv.T)
		out = frame.AppendVarint(out, sv.Seq)
	}
	out = frame.AppendVarint(out, img.SketchDebt)
	out = frame.AppendVarint(out, img.SketchSeq)
	out = frame.AppendVarint(out, img.SketchM)
	out = frame.AppendVarint(out, int64(len(img.Buckets)))
	for _, b := range img.Buckets {
		out = appendBlob(out, b)
	}
	for _, n := range img.BucketPairs {
		out = frame.AppendVarint(out, n)
	}
	out = frame.AppendVarint(out, img.Received)
	out = frame.AppendVarint(out, img.InMemRecs)
	out = frame.AppendVarint(out, img.DirectOut)
	out = frame.AppendVarint(out, img.SinceScan)
	return out
}

// UnmarshalImage decodes a blob produced by MarshalImage. The decoded
// image copies nothing from b beyond its own slices' backing (blobs
// alias b; callers that outlive b must copy).
func UnmarshalImage(b []byte) (*StateImage, error) {
	c := frame.NewCursor(b)
	img := &StateImage{}
	img.Table = blob(&c)
	img.TableKeys = int(c.Varint())
	// A negative or absurd count (more elements than bytes left) is
	// damage; Count refuses it before it can size a loop.
	for i := c.Count(c.Varint()); i > 0; i-- {
		img.Sketch = append(img.Sketch, frequent.Saved{
			Key: blob(&c), State: blob(&c), C: c.Varint(), T: c.Varint(), Seq: c.Varint(),
		})
	}
	img.SketchDebt = c.Varint()
	img.SketchSeq = c.Varint()
	img.SketchM = c.Varint()
	nBuckets := c.Count(c.Varint())
	for i := 0; i < nBuckets; i++ {
		img.Buckets = append(img.Buckets, blob(&c))
	}
	for i := 0; i < nBuckets; i++ {
		img.BucketPairs = append(img.BucketPairs, c.Varint())
	}
	img.Received = c.Varint()
	img.InMemRecs = c.Varint()
	img.DirectOut = c.Varint()
	img.SinceScan = c.Varint()
	if c.Done() != nil {
		return nil, ErrBadImage
	}
	return img, nil
}

// appendBlob writes b behind its length as a signed varint (this
// format predates the unsigned frame.AppendBytes and is pinned).
func appendBlob(dst, b []byte) []byte {
	return append(frame.AppendVarint(dst, int64(len(b))), b...)
}

// blob reads what appendBlob wrote; an empty blob decodes as nil.
func blob(c *frame.Cursor) []byte {
	if b := c.Take(c.Varint()); len(b) > 0 {
		return b
	}
	return nil
}
