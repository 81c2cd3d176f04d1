package jobstore

import (
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

// encodeSnapshot renders the current bucket state (caller holds s.mu)
// into its file representation.
func (s *Store) encodeSnapshot(txid, seg, off int64) []byte {
	var hdr []byte
	for _, v := range []int64{snapshotVersion, txid, seg, off, int64(len(s.names))} {
		hdr = frame.AppendUvarint(hdr, uint64(v))
	}
	out := frame.Append(nil, hdr)
	var body []byte
	for _, name := range s.names {
		b := s.buckets[name]
		body = frame.AppendString(body[:0], name)
		body = frame.AppendUvarint(body, b.seq)
		body = frame.AppendUvarint(body, uint64(len(b.keys)))
		for _, k := range b.keys {
			body = frame.AppendString(body, k)
			body = frame.AppendBytes(body, b.vals[k])
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
	c := frame.NewCursor(hdr)
	version := c.Uvarint()
	sn := &snapshot{Txid: int64(c.Uvarint()), Seg: int64(c.Uvarint()), Off: int64(c.Uvarint())}
	nb := int64(c.Uvarint())
	if err := c.Done(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSnapshot, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrBadSnapshot, version, snapshotVersion)
	}
	for ; nb > 0; nb-- {
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

// decodeSnapBucket parses one bucket frame. Values are copied out of
// the file buffer (an empty one is nil, as after a live Put); keys
// alias it until restoreSnapshot makes them strings.
func decodeSnapBucket(p []byte) (snapBucket, error) {
	c := frame.NewCursor(p)
	bk := snapBucket{name: c.String(), seq: c.Uvarint()}
	bk.pairs = make([][2][]byte, c.Count(int64(c.Uvarint())))
	for i := range bk.pairs {
		bk.pairs[i] = [2][]byte{c.Bytes(), append([]byte(nil), c.Bytes()...)}
	}
	if err := c.Done(); err != nil {
		return bk, fmt.Errorf("%w: bucket %q: %v", ErrBadSnapshot, bk.name, err)
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
	if err := s.log.Err(); err != nil {
		return err // before the state is encoded for nothing
	}
	at := s.log.Stats()
	txid := at.NextID - 1
	return s.log.WriteImage(seglog.ImageRef{ID: txid, Seg: at.Seg, Off: at.Off}, s.encodeSnapshot(txid, at.Seg, at.Off))
}

// recover restores the newest good snapshot and replays the log suffix
// behind it, asserting transaction-id contiguity; see Open.
func (s *Store) recover() error {
	log, info, err := seglog.Recover(&layout, seglog.Options{
		Dir: s.cfg.Dir, SealBytes: s.cfg.SealBytes, Retain: s.cfg.RetainSnapshots, Fail: s.cfg.Fail,
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
	return nil
}
