package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/seglog"
)

// ErrCrash is returned by injected failpoints to simulate the process
// dying at that exact point. The store wedges itself when it surfaces;
// the crash harness then reopens the directory like a fresh process.
var ErrCrash = seglog.ErrCrash

// ErrBadCommit reports a log frame whose CRC verified but whose
// payload does not decode — a software bug or damage beyond CRC32C's
// guarantee, never a torn write. Recovery refuses to guess.
var ErrBadCommit = errors.New("jobstore: malformed commit payload")

// Failpoints are test hooks for crash injection. All optional; a nil
// Failpoints (or field) is a no-op.
type Failpoints struct {
	// TornCommit, if non-nil and returning n >= 0 for transaction txid,
	// persists only the first n bytes of the commit frame and fails the
	// commit — a torn write at a controlled offset.
	TornCommit func(txid int64) int
	// BeforeCommitSync fires before fsyncing transaction txid's frame; a
	// non-nil error aborts the commit after the (unsynced) write.
	BeforeCommitSync func(txid int64) error
	// TornSnapshot, if non-nil and returning n >= 0 for the snapshot at
	// txid, persists only the first n bytes of the snapshot file and
	// fails — recovery must fall back to the previous snapshot.
	TornSnapshot func(txid int64) int
}

// logFail hands the hooks to the log layer under its names.
func (fp *Failpoints) logFail() *seglog.Failpoints {
	if fp == nil {
		return nil
	}
	return &seglog.Failpoints{
		TornAppend: fp.TornCommit,
		BeforeSync: fp.BeforeCommitSync,
		TornImage:  fp.TornSnapshot,
	}
}

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
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
	}
	put(uint64(txid))
	put(uint64(len(ops)))
	for _, o := range ops {
		dst = append(dst, o.kind)
		put(uint64(len(o.bucket)))
		dst = append(dst, o.bucket...)
		switch o.kind {
		case opPut:
			put(uint64(len(o.key)))
			dst = append(dst, o.key...)
			put(uint64(len(o.val)))
			dst = append(dst, o.val...)
		case opDelete:
			put(uint64(len(o.key)))
			dst = append(dst, o.key...)
		case opSeq:
			put(o.seq)
		}
	}
	return dst
}

// decodeCommit parses one commit payload. Byte slices alias p.
func decodeCommit(p []byte) (txid int64, ops []op, err error) {
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	str := func() (string, bool) {
		ln, ok := next()
		if !ok || ln > uint64(len(p)) {
			return "", false
		}
		s := string(p[:ln])
		p = p[ln:]
		return s, true
	}
	u, ok := next()
	if !ok {
		return 0, nil, ErrBadCommit
	}
	txid = int64(u)
	nops, ok := next()
	if !ok || nops > uint64(len(p))+1 {
		return 0, nil, ErrBadCommit
	}
	ops = make([]op, 0, nops)
	for i := uint64(0); i < nops; i++ {
		if len(p) == 0 {
			return 0, nil, ErrBadCommit
		}
		o := op{kind: p[0]}
		p = p[1:]
		if o.bucket, ok = str(); !ok {
			return 0, nil, ErrBadCommit
		}
		switch o.kind {
		case opPut:
			if o.key, ok = str(); !ok {
				return 0, nil, ErrBadCommit
			}
			var v string
			if v, ok = str(); !ok {
				return 0, nil, ErrBadCommit
			}
			o.val = []byte(v)
		case opDelete:
			if o.key, ok = str(); !ok {
				return 0, nil, ErrBadCommit
			}
		case opSeq:
			if o.seq, ok = next(); !ok {
				return 0, nil, ErrBadCommit
			}
		default:
			return 0, nil, fmt.Errorf("%w: op kind %d", ErrBadCommit, o.kind)
		}
		ops = append(ops, o)
	}
	if len(p) != 0 {
		return 0, nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCommit, len(p))
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
