package jobstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func put(t *testing.T, s *Store, bucket, key, val string) {
	t.Helper()
	err := s.Update(func(tx *Tx) error {
		return tx.Bucket(bucket).Put([]byte(key), []byte(val))
	})
	if err != nil {
		t.Fatalf("put %s/%s: %v", bucket, key, err)
	}
}

func get(t *testing.T, s *Store, bucket, key string) (string, bool) {
	t.Helper()
	var v []byte
	if err := s.View(func(tx *Tx) error {
		v = tx.Bucket(bucket).Get([]byte(key))
		return nil
	}); err != nil {
		t.Fatalf("view: %v", err)
	}
	if v == nil {
		return "", false
	}
	return string(v), true
}

func TestCRUDAndCleanReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "jobs", "j1", "spec1")
	put(t, s, "jobs", "j2", "spec2")
	put(t, s, "orgs", "acme", "limits")
	if v, ok := get(t, s, "jobs", "j1"); !ok || v != "spec1" {
		t.Fatalf("get j1 = %q, %v", v, ok)
	}
	if err := s.Update(func(tx *Tx) error {
		return tx.Bucket("jobs").Delete([]byte("j1"))
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "jobs", "j1"); ok {
		t.Fatal("j1 survived delete")
	}
	want := s.Dump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen dump mismatch:\n got %v\nwant %v", got, want)
	}
	// Clean shutdown snapshots, so a clean reopen replays nothing.
	if s2.Recovery.ReplayedTx != 0 {
		t.Fatalf("clean reopen replayed %d tx, want 0", s2.Recovery.ReplayedTx)
	}
	if s2.Recovery.RestoredTx == 0 {
		t.Fatal("clean reopen restored no snapshot")
	}
}

func TestReopenAfterAbortReplaysLog(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		put(t, s, "jobs", fmt.Sprintf("j%d", i), fmt.Sprintf("v%d", i))
	}
	want := s.Dump()
	s.Abort() // kill -9 stand-in: no final snapshot, no flush

	s2, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("abort reopen dump mismatch:\n got %v\nwant %v", got, want)
	}
	if s2.Recovery.ReplayedTx != 10 {
		t.Fatalf("replayed %d tx, want 10", s2.Recovery.ReplayedTx)
	}
	if s2.Recovery.RestoredTx != 0 {
		t.Fatalf("restored tx %d, want 0 (no snapshot)", s2.Recovery.RestoredTx)
	}
}

func TestNextSequenceMonotonicAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		if err := s.Update(func(tx *Tx) error {
			n, err := tx.Bucket("runseq").NextSequence()
			if err != nil {
				return err
			}
			if n != last+1 {
				return fmt.Errorf("seq %d after %d", n, last)
			}
			last = n
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()
	s2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Update(func(tx *Tx) error {
		n, err := tx.Bucket("runseq").NextSequence()
		if err != nil {
			return err
		}
		if n != 6 {
			return fmt.Errorf("post-restart seq = %d, want 6", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachInsertionOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"zeta", "alpha", "mid", "beta"}
	for _, k := range keys {
		put(t, s, "b", k, k)
	}
	var got []string
	s.View(func(tx *Tx) error {
		return tx.Bucket("b").ForEach(func(k, _ []byte) error {
			got = append(got, string(k))
			return nil
		})
	})
	if !reflect.DeepEqual(got, keys) {
		t.Fatalf("ForEach order %v, want insertion order %v", got, keys)
	}
	var n int
	s.View(func(tx *Tx) error { n = tx.Bucket("b").Len(); return nil })
	if n != len(keys) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
}

func TestViewRejectsWrites(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.View(func(tx *Tx) error {
		b := tx.Bucket("x")
		if err := b.Put([]byte("k"), []byte("v")); err == nil {
			t.Error("Put inside View succeeded")
		}
		if err := b.Delete([]byte("k")); err == nil {
			t.Error("Delete inside View succeeded")
		}
		if _, err := b.NextSequence(); err == nil {
			t.Error("NextSequence inside View succeeded")
		}
		return nil
	})
}

func TestClosedStoreRefuses(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Update(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close: %v, want ErrClosed", err)
	}
	if err := s.View(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("View after Close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestCompactionPrunesLogAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealBytes: 256, CompactEvery: 8, RetainSnapshots: 2}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(t, s, "jobs", fmt.Sprintf("j%03d", i%17), fmt.Sprintf("value-%04d", i))
	}
	want := s.Dump()
	m := s.Metrics()
	if m.Snapshots == 0 {
		t.Fatal("no snapshots written despite CompactEvery=8")
	}
	if m.LogSegment < 3 {
		t.Fatalf("log segment %d, want several seals at SealBytes=256", m.LogSegment)
	}
	s.Abort()

	snaps, _ := layout.Images(dir)
	if len(snaps) > cfg.RetainSnapshots {
		t.Fatalf("%d snapshots on disk, want <= %d", len(snaps), cfg.RetainSnapshots)
	}
	segs, _ := layout.Segments(dir)
	if segs[0] == 1 {
		t.Fatal("segment 1 never pruned despite snapshots subsuming it")
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction reopen mismatch:\n got %v\nwant %v", got, want)
	}
	// The whole point of compaction: recovery reads only the suffix.
	if s2.Recovery.RecoveryReadBytes >= m.LogAppendedBytes {
		t.Fatalf("RecoveryReadBytes %d >= total log bytes %d: snapshot saved nothing",
			s2.Recovery.RecoveryReadBytes, m.LogAppendedBytes)
	}
	if s2.Recovery.RestoredTx == 0 {
		t.Fatal("recovery restored no snapshot")
	}
}

func TestTornCommitIsNotAcknowledgedAndNotRecovered(t *testing.T) {
	dir := t.TempDir()
	const crashAt = 7
	cfg := Config{Dir: dir, CompactEvery: -1, Fail: &Failpoints{
		TornAppend: func(txid int64) int {
			if txid == crashAt {
				return 5 // tear mid-frame
			}
			return -1
		},
	}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 1; i <= 10; i++ {
		err := s.Update(func(tx *Tx) error {
			return tx.Bucket("jobs").Put([]byte(fmt.Sprintf("j%02d", i)), []byte("v"))
		})
		if i < crashAt {
			if err != nil {
				t.Fatalf("tx %d: %v", i, err)
			}
			acked++
			continue
		}
		if !errors.Is(err, ErrCrash) {
			t.Fatalf("tx %d after crash: err = %v, want ErrCrash (store must wedge)", i, err)
		}
	}
	s.Abort()

	s2, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Recovery.ReplayedTx != int64(acked) {
		t.Fatalf("recovered %d tx, want the %d acknowledged", s2.Recovery.ReplayedTx, acked)
	}
	if s2.Recovery.TornTailsTruncated != 1 {
		t.Fatalf("TornTailsTruncated = %d, want 1", s2.Recovery.TornTailsTruncated)
	}
	for i := 1; i <= acked; i++ {
		if _, ok := get(t, s2, "jobs", fmt.Sprintf("j%02d", i)); !ok {
			t.Fatalf("acknowledged key j%02d lost", i)
		}
	}
}

func TestTornSnapshotFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	tearNext := false
	cfg := Config{Dir: dir, CompactEvery: -1, Fail: &Failpoints{
		TornImage: func(txid int64) int {
			if tearNext {
				return 10
			}
			return -1
		},
	}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		put(t, s, "jobs", fmt.Sprintf("j%d", i), "v")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "jobs", "late", "v")
	want := s.Dump()
	tearNext = true
	if err := s.Compact(); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn compaction: err = %v, want ErrCrash", err)
	}
	s.Abort()

	s2, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback reopen mismatch:\n got %v\nwant %v", got, want)
	}
	if s2.Recovery.SnapshotsDiscarded != 1 {
		t.Fatalf("SnapshotsDiscarded = %d, want 1", s2.Recovery.SnapshotsDiscarded)
	}
	if s2.Recovery.RestoredTx != 5 {
		t.Fatalf("RestoredTx = %d, want 5 (the intact snapshot)", s2.Recovery.RestoredTx)
	}
}

func TestSealedSegmentDamageRefusesToOpen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, SealBytes: 128, CompactEvery: -1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		put(t, s, "jobs", fmt.Sprintf("j%02d", i), "some-value-padding")
	}
	s.Abort()
	segs, err := layout.Segments(dir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments, have %v (%v)", segs, err)
	}
	// Flip one byte in the middle of the first (sealed) segment.
	path := filepath.Join(dir, layout.SegName(segs[0]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(cfg)
	var segErr *SegmentError
	if !errors.As(err, &segErr) {
		t.Fatalf("open over sealed-segment damage: %v, want *SegmentError", err)
	}
	if segErr.Segment != layout.SegName(segs[0]) {
		t.Fatalf("SegmentError names %s, want %s", segErr.Segment, layout.SegName(segs[0]))
	}
}

func TestWedgeAfterCommitError(t *testing.T) {
	boom := errors.New("disk on fire")
	armed := false
	s, err := Open(Config{Dir: t.TempDir(), CompactEvery: -1, Fail: &Failpoints{
		BeforeSync: func(int64) error {
			if armed {
				return boom
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "b", "k", "v")
	armed = true
	err = s.Update(func(tx *Tx) error { return tx.Bucket("b").Put([]byte("k2"), []byte("v")) })
	if !errors.Is(err, boom) {
		t.Fatalf("failed commit: %v, want injected error", err)
	}
	armed = false
	err = s.Update(func(tx *Tx) error { return tx.Bucket("b").Put([]byte("k3"), []byte("v")) })
	if !errors.Is(err, boom) {
		t.Fatalf("post-wedge Update: %v, want the wedging error", err)
	}
	if m := s.Metrics(); m.Wedged == "" {
		t.Fatal("Metrics.Wedged empty after wedge")
	}
	s.Abort()
}

func TestEmptyUpdateCommitsNothing(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Update(func(tx *Tx) error {
		if v := tx.Bucket("b").Get([]byte("absent")); v != nil {
			t.Errorf("Get absent = %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.NextTx != 1 || m.LogSyncs != 0 {
		t.Fatalf("read-only Update advanced the log: %+v", m)
	}
}

func TestDeleteAbsentKeyIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx *Tx) error {
		return tx.Bucket("b").Delete([]byte("ghost"))
	}); err != nil {
		t.Fatal(err)
	}
	want := s.Dump()
	s.Abort()
	s2, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Dump(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tombstone replay mismatch: got %v want %v", got, want)
	}
}
