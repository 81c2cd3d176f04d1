package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/frame"
	"repro/internal/seglog"
)

// snapshotVersion guards the snapshot layout; bump on change.
const snapshotVersion = 1

// ErrBadSnapshot reports a snapshot file whose frames verified but
// whose contents do not decode — damage beyond what a chain fallback
// should paper over.
var ErrBadSnapshot = errors.New("jobstore: malformed snapshot")

// snapshot is one compacted image of the full bucket state plus the
// log position (segment, end offset) just past the last transaction
// folded into it. Recovery restores the newest good snapshot and
// replays only the log suffix after (Seg, Off).
//
// File layout (snap-<txid>.sn), validated with frame.ScanTail — the
// same audited code path log recovery uses:
//
//	frame([version][txid][seg][off][nbuckets] varints)
//	nbuckets × frame([name][seq][npairs]([key][val])*)
//
// Snapshots are written in place (no tmp+rename): a torn snapshot is
// expected under crash injection and the chain simply falls back to
// the previous one, which is why at least two are retained.
type snapshot struct {
	Txid     int64 // last transaction id applied to the image
	Seg, Off int64 // log position just past transaction Txid
	buckets  []snapBucket
}

type snapBucket struct {
	name  string
	seq   uint64
	pairs [][2][]byte // insertion order
}

func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	return append(dst, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encodeSnapshot renders the current bucket state (caller holds s.mu)
// into its file representation.
func (s *Store) encodeSnapshot(txid, seg, off int64) []byte {
	var hdr []byte
	for _, v := range []int64{snapshotVersion, txid, seg, off, int64(len(s.names))} {
		hdr = appendUvarint(hdr, uint64(v))
	}
	out := frame.Append(nil, hdr)
	var body []byte
	for _, name := range s.names {
		b := s.buckets[name]
		body = appendBytes(body[:0], []byte(name))
		body = appendUvarint(body, b.seq)
		body = appendUvarint(body, uint64(len(b.keys)))
		for _, k := range b.keys {
			body = appendBytes(body, []byte(k))
			body = appendBytes(body, b.vals[k])
		}
		out = frame.Append(out, body)
	}
	return out
}

// decodeSnapshot parses a snapshot file body whose frames already
// verified clean (whole-file span).
func decodeSnapshot(b []byte) (*snapshot, error) {
	hdr, n, err := frame.Next(b)
	if err != nil {
		return nil, err
	}
	b = b[n:]
	var fields [5]int64
	for i := range fields {
		v, vn := binary.Uvarint(hdr)
		if vn <= 0 {
			return nil, fmt.Errorf("%w: short header", ErrBadSnapshot)
		}
		fields[i] = int64(v)
		hdr = hdr[vn:]
	}
	if len(hdr) != 0 {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrBadSnapshot, len(hdr))
	}
	if fields[0] != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, fields[0], snapshotVersion)
	}
	sn := &snapshot{Txid: fields[1], Seg: fields[2], Off: fields[3]}
	nb := fields[4]
	for i := int64(0); i < nb; i++ {
		body, bn, err := frame.Next(b)
		if err != nil {
			return nil, err
		}
		b = b[bn:]
		bk, err := decodeSnapBucket(body)
		if err != nil {
			return nil, err
		}
		sn.buckets = append(sn.buckets, bk)
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(b))
	}
	return sn, nil
}

func decodeSnapBucket(p []byte) (snapBucket, error) {
	var bk snapBucket
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, false
		}
		p = p[n:]
		return v, true
	}
	bs := func() ([]byte, bool) {
		ln, ok := next()
		if !ok || ln > uint64(len(p)) {
			return nil, false
		}
		b := append([]byte(nil), p[:ln]...)
		p = p[ln:]
		return b, true
	}
	name, ok := bs()
	if !ok {
		return bk, fmt.Errorf("%w: bucket name", ErrBadSnapshot)
	}
	bk.name = string(name)
	if bk.seq, ok = next(); !ok {
		return bk, fmt.Errorf("%w: bucket seq", ErrBadSnapshot)
	}
	npairs, ok := next()
	if !ok {
		return bk, fmt.Errorf("%w: bucket pair count", ErrBadSnapshot)
	}
	for i := uint64(0); i < npairs; i++ {
		k, ok1 := bs()
		v, ok2 := bs()
		if !ok1 || !ok2 {
			return bk, fmt.Errorf("%w: bucket %s pair %d", ErrBadSnapshot, bk.name, i)
		}
		bk.pairs = append(bk.pairs, [2][]byte{k, v})
	}
	if len(p) != 0 {
		return bk, fmt.Errorf("%w: %d trailing bucket bytes", ErrBadSnapshot, len(p))
	}
	return bk, nil
}

// restoreSnapshot replaces the in-memory state with sn's contents.
func (s *Store) restoreSnapshot(sn *snapshot) {
	s.buckets = make(map[string]*bucket, len(sn.buckets))
	s.names = s.names[:0]
	for _, bk := range sn.buckets {
		b := s.getBucket(bk.name)
		b.seq = bk.seq
		for _, kv := range bk.pairs {
			b.put(string(kv[0]), kv[1])
		}
	}
}

// compactLocked writes a snapshot at the current log position; the
// log layer prunes the snapshots and segments it subsumes. Callers
// hold s.mu.
func (s *Store) compactLocked() error {
	txid, at := s.nextTx-1, s.log.Stats()
	data := s.encodeSnapshot(txid, at.Seg, at.Off)
	if err := s.log.WriteImage(seglog.ImageRef{ID: txid, Seg: at.Seg, Off: at.Off}, data); err != nil {
		return err
	}
	s.snapshots++
	s.snapshotBytes += int64(len(data))
	s.commits = 0
	return nil
}

// recover restores the newest good snapshot and replays the log suffix
// behind it, asserting transaction-id contiguity; see Open.
func (s *Store) recover() error {
	log, info, err := seglog.Recover(&layout, seglog.Options{
		Dir: s.cfg.Dir, SealBytes: s.cfg.SealBytes, Retain: s.cfg.RetainSnapshots, Fail: s.cfg.Fail.logFail(),
	}, seglog.Replay{
		Image: func(data []byte) (seglog.ImageRef, func() error, error) {
			sn, err := decodeSnapshot(data)
			if err != nil {
				return seglog.ImageRef{}, nil, err
			}
			return seglog.ImageRef{ID: sn.Txid, Seg: sn.Seg, Off: sn.Off}, func() error { s.restoreSnapshot(sn); return nil }, nil
		},
		Record: func(p []byte) (int64, func(), error) {
			txid, ops, err := decodeCommit(p)
			return txid, func() {
				for _, o := range ops {
					s.apply(o)
				}
			}, err
		},
	})
	if err != nil {
		return err
	}
	s.Recovery = RecoveryInfo{
		RestoredTx:         info.Image.ID,
		ReplayedTx:         info.Replayed,
		RecoveryReadBytes:  info.ReadBytes,
		SkippedSegBytes:    info.SkippedBytes,
		TornTailsTruncated: info.TornTails,
		SnapshotsDiscarded: info.ImagesTorn + info.ImagesCorrupt,
	}
	s.log = log
	s.nextTx = info.NextID
	return nil
}
