// Package frame implements the checksummed block framing wrapped
// around every persisted stream when end-to-end checksums are enabled
// (ClusterConfig.Checksums). A frame is
//
//	[magic 1B][payload-len uvarint][payload][crc32c 4B LE]
//
// with the CRC32C (Castagnoli) computed over magic, length field, and
// payload together, so a bit flip anywhere in the frame — including
// the header — fails verification. CRC32's burst-error guarantee
// covers every error span of ≤ 32 bits, which includes any single
// corrupted byte; longer corruptions are detected with probability
// 1-2⁻³². A stream is a concatenation of frames, one per write.
//
// The engine stores most file payloads unframed (offsets inside
// intermediate files are load-bearing) and keeps the frame as
// metadata — see storage.Store — but checkpoint images travel as
// literal framed blobs, so both representations share this codec.
package frame

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Magic opens every frame. Chosen to not collide with plausible
// kvenc stream bytes at offset 0 (a key length uvarint of 0xF5 would
// mean a 117-byte key with a continuation bit — rare but possible, so
// detection never relies on the magic alone).
const Magic = 0xF5

// TrailerSize is the CRC32C trailer length.
const TrailerSize = 4

// ErrCorrupt reports a frame whose checksum, magic, or length does
// not verify.
var ErrCorrupt = errors.New("frame: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The header is built into a stack array at each call site (not a
// slice returned from a shared helper, which would escape to the
// heap) so the whole frame path is free of allocations — the
// allocation-regression tests pin this down.

// Overhead returns the framing bytes added around an n-byte payload:
// the magic byte, the uvarint length field, and the CRC trailer.
func Overhead(n int) int64 {
	l := int64(1)
	for v := uint64(n); v >= 0x80; v >>= 7 {
		l++
	}
	return l + 1 + TrailerSize
}

// Checksum returns the CRC32C a frame holding payload carries. It
// covers header and payload, so it doubles as the stored checksum for
// unframed payloads whose framing exists only as metadata.
func Checksum(payload []byte) uint32 { return Extend(Start(len(payload)), payload) }

// Start is the checksum of an n-byte payload's frame header, which Extend
// carries over the payload in pieces: Extend(Start(len(p)), p) == Checksum(p).
func Start(n int) uint32 {
	var hdr [MaxHeader]byte
	hdr[0] = Magic
	m := 1 + binary.PutUvarint(hdr[1:], uint64(n))
	// Byte-at-a-time table update for the ≤11-byte header: identical
	// to crc32.Update, but escape analysis can prove the stack array
	// never leaves the frame (crc32.Update's generic fallback branch
	// leaks its argument, which would heap-allocate hdr on every
	// call). The payload still goes through the accelerated path.
	c := ^uint32(0)
	for _, v := range hdr[:m] {
		c = castagnoli[byte(c)^v] ^ (c >> 8)
	}
	return ^c
}

// Extend carries checksum c over the next piece of a frame's payload.
func Extend(c uint32, piece []byte) uint32 { return crc32.Update(c, castagnoli, piece) }

// MaxHeader is the most bytes a frame's header takes.
const MaxHeader = 1 + binary.MaxVarintLen64

// FrameOverhead returns the framing bytes of a size-byte frame.
func FrameOverhead(size int) int64 { return Overhead(size - int(Overhead(size))) }

// Append appends one frame wrapping payload to dst. The payload may lie
// MaxHeader bytes past dst's end, in its spare capacity.
func Append(dst, payload []byte) []byte {
	var hdr [MaxHeader]byte
	hdr[0] = Magic
	m := 1 + binary.PutUvarint(hdr[1:], uint64(len(payload)))
	var tr [TrailerSize]byte
	binary.LittleEndian.PutUint32(tr[:], Checksum(payload))
	dst = append(dst, hdr[:m]...)
	dst = append(dst, payload...)
	return append(dst, tr[:]...)
}

// Next decodes and verifies the first frame of b. The returned
// payload aliases b; size is the total encoded frame length.
func Next(b []byte) (payload []byte, size int, err error) {
	if len(b) < 2+TrailerSize || b[0] != Magic {
		return nil, 0, ErrCorrupt
	}
	ln, m := binary.Uvarint(b[1:])
	if m <= 0 || ln > uint64(len(b)) {
		return nil, 0, ErrCorrupt
	}
	hdr := 1 + m
	size = hdr + int(ln) + TrailerSize
	if size > len(b) {
		return nil, 0, ErrCorrupt
	}
	payload = b[hdr : hdr+int(ln) : hdr+int(ln)]
	want := binary.LittleEndian.Uint32(b[hdr+int(ln) : size])
	if Checksum(payload) != want {
		return nil, 0, ErrCorrupt
	}
	return payload, size, nil
}

// Decode decodes a single frame that must span b exactly — the
// checkpoint-image representation. A frame whose length field was
// corrupted into a different valid parse fails the exact-span check
// even in the astronomically unlikely event its checksum collides.
func Decode(b []byte) ([]byte, error) {
	p, n, err := Next(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, ErrCorrupt
	}
	return p, nil
}
