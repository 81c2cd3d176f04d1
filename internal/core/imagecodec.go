package core

import (
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/frame"
	"repro/internal/frequent"
)

// ErrBadImage reports a checkpoint image blob that does not decode.
// With checksums on, the frame layer catches corruption before the
// codec runs; the codec still validates so a damaged image can never
// be half-applied.
var ErrBadImage = errors.New("core: malformed state image")

// FramedImage serializes a state image straight into one CRC32C frame,
// over dst's bytes when they hold it: the checkpoint representation the
// engine and the ingestion service share, so they cannot disagree about
// what a valid image blob is.
func FramedImage(dst []byte, img *StateImage) []byte {
	const v = binary.MaxVarintLen64 // at most, per varint
	n := frame.MaxHeader + int(img.StateBytes()) + (5*v-24)*len(img.Sketch) + 13*v + len(img.Log)
	b := appendImage(slices.Grow(dst[:0], n+frame.TrailerSize)[:frame.MaxHeader], img)
	return frame.Append(b[:0], b[frame.MaxHeader:])
}

// DecodeFramedImage decodes a blob produced by FramedImage: exactly
// one verified frame spanning b, whose payload unmarshals as a state
// image. A torn tail, a flipped bit, or a truncated payload all fail —
// an image restores whole or not at all.
func DecodeFramedImage(b []byte) (*StateImage, error) {
	payload, err := frame.Decode(b)
	if err != nil {
		return nil, err
	}
	return UnmarshalImage(payload)
}

// appendImage appends a StateImage to out as one flat blob, the
// inverse of UnmarshalImage.
func appendImage(out []byte, img *StateImage) []byte {
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
	out = appendBlob(frame.AppendVarint(out, 1), img.Log) // one serialized bucket
	out = frame.AppendVarint(out, img.LogPairs)
	out = frame.AppendVarint(out, img.Received)
	out = frame.AppendVarint(out, img.InMemRecs)
	out = frame.AppendVarint(out, img.DirectOut)
	out = frame.AppendVarint(out, img.SinceScan)
	return out
}

// UnmarshalImage decodes a blob produced by appendImage. The decoded
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
	buckets, log, logPairs := c.Varint(), blob(&c), c.Varint()
	img.Log, img.LogPairs = log, logPairs
	img.Received = c.Varint()
	img.InMemRecs = c.Varint()
	img.DirectOut = c.Varint()
	img.SinceScan = c.Varint()
	if c.Done() != nil || buckets != 1 {
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
