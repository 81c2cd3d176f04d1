package jobstore

import (
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/seglog"
)

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point. The log wedges on it — every later commit
// and snapshot refuses with the same error — and the crash harness then
// reopens the directory like a fresh process.
var ErrCrash = seglog.ErrCrash

// ErrBadCommit reports a log frame whose CRC verified but whose
// payload does not decode — a software bug or damage beyond CRC32C's
// guarantee, never a torn write. Recovery refuses to guess.
var ErrBadCommit = errors.New("jobstore: malformed commit payload")

// Failpoints are the log's crash-injection hooks: record ids are
// transaction ids, images are snapshots.
type Failpoints = seglog.Failpoints

// layout is the store directory's shape in internal/seglog's terms:
// sealed segments log-%08d.seg of one frame per committed transaction,
// snapshots snap-%016d.sn of a header frame plus one frame per bucket.
var layout = seglog.Layout{
	Name:      "jobstore: log",
	SegPrefix: "log-", SegExt: ".seg",
	ImgPrefix: "snap-", ImgExt: ".sn",
}

// Op kinds inside a commit payload.
const (
	opPut    = byte(1)
	opDelete = byte(2)
	opSeq    = byte(3)
)

// op is one mutation inside a transaction.
type op struct {
	kind   byte
	bucket string
	key    string
	val    []byte
	seq    uint64
}

// Commit payload layout, carried as one CRC32C frame per transaction:
//
//	[txid uvarint][nops uvarint]
//	  per op: [kind 1B][blen uvarint][bucket]
//	          put:    [klen uvarint][key][vlen uvarint][val]
//	          delete: [klen uvarint][key]
//	          seq:    [seq uvarint]
//
// txid is 1-based and contiguous across segments; recovery asserts
// contiguity so a lost sealed segment can never be skipped silently.
func appendCommit(dst []byte, txid int64, ops []op) []byte {
	dst = frame.AppendUvarint(dst, uint64(txid))
	dst = frame.AppendUvarint(dst, uint64(len(ops)))
	for _, o := range ops {
		dst = append(dst, o.kind)
		dst = frame.AppendString(dst, o.bucket)
		switch o.kind {
		case opPut:
			dst = frame.AppendString(dst, o.key)
			dst = frame.AppendBytes(dst, o.val)
		case opDelete:
			dst = frame.AppendString(dst, o.key)
		case opSeq:
			dst = frame.AppendUvarint(dst, o.seq)
		}
	}
	return dst
}

// decodeCommit parses one commit payload. Values alias p.
func decodeCommit(p []byte) (txid int64, ops []op, err error) {
	c := frame.NewCursor(p)
	txid = int64(c.Uvarint())
	ops = make([]op, c.Count(int64(c.Uvarint())))
	for i := range ops {
		o := &ops[i]
		o.kind, o.bucket = c.Byte(), c.String()
		switch o.kind {
		case opPut:
			o.key, o.val = c.String(), c.Bytes()
		case opDelete:
			o.key = c.String()
		case opSeq:
			o.seq = c.Uvarint()
		default: // a truncated payload reads its missing kind as 0
			return 0, nil, fmt.Errorf("%w: op %d has kind %d", ErrBadCommit, i, o.kind)
		}
	}
	if err := c.Done(); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrBadCommit, err)
	}
	return txid, ops, nil
}

// apply replays one decoded op into the bucket state.
func (s *Store) apply(o op) {
	b := s.getBucket(o.bucket)
	switch o.kind {
	case opPut:
		b.put(o.key, append([]byte(nil), o.val...))
	case opDelete:
		b.delete(o.key)
	case opSeq:
		b.seq = o.seq
	}
}

// SegmentError reports a damaged log segment recovery refuses to
// repair silently: corruption anywhere, or a torn tail somewhere other
// than the final (still-writable) segment.
type SegmentError = seglog.SegmentError
