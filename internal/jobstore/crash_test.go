package jobstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/frame"
)

// The crash-point sweep: run a deterministic workload against a store
// with aggressive sealing and compaction, kill it with Abort, then for
// every frame boundary in the final (still writable) log segment —
// plus random mid-frame offsets — truncate a copy of the directory at
// that point and reopen. The recovered state must DeepEqual the oracle
// state after exactly the commits that survive the truncation, and the
// recovered commit count must match one computed independently from
// the on-disk bytes, so no acknowledged commit can vanish silently and
// no torn suffix can resurrect.

// sweepWorkload applies deterministic commit #i to s and returns any
// error. Mixes puts, deletes, and sequence mints across several
// buckets so replay exercises every op kind.
func sweepWorkload(s *Store, i int) error {
	return s.Update(func(tx *Tx) error {
		jobs := tx.Bucket("jobs")
		key := fmt.Sprintf("j%03d", i%23)
		if i%7 == 3 {
			if err := jobs.Delete([]byte(key)); err != nil {
				return err
			}
		} else if err := jobs.Put([]byte(key), []byte(fmt.Sprintf("spec-%04d", i))); err != nil {
			return err
		}
		if i%3 == 0 {
			if _, err := tx.Bucket("runseq").NextSequence(); err != nil {
				return err
			}
		}
		if i%5 == 0 {
			if err := tx.Bucket("runs").Put(
				[]byte(fmt.Sprintf("r%04d", i)),
				[]byte(fmt.Sprintf("report-%d", i)),
			); err != nil {
				return err
			}
		}
		return nil
	})
}

// oracleStates returns dump-after-commit-k for k = 0..n by replaying
// the workload against a pristine store that never crashes.
func oracleStates(t *testing.T, n int) []map[string]map[string]string {
	t.Helper()
	s, err := Open(Config{Dir: t.TempDir(), CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	states := make([]map[string]map[string]string, 0, n+1)
	states = append(states, s.Dump())
	for i := 0; i < n; i++ {
		if err := sweepWorkload(s, i); err != nil {
			t.Fatalf("oracle commit %d: %v", i, err)
		}
		states = append(states, s.Dump())
	}
	return states
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// frameBoundaries steps through a segment's bytes and returns every
// frame boundary offset (0, end of frame 1, end of frame 2, ...) plus
// the txid carried by the first frame.
func frameBoundaries(t *testing.T, b []byte) (bounds []int64, firstTx int64) {
	t.Helper()
	off := int64(0)
	bounds = append(bounds, 0)
	first := true
	for len(b) > 0 {
		payload, n, err := frame.Next(b)
		if err != nil {
			t.Fatalf("stepping frames at offset %d: %v", off, err)
		}
		if first {
			txid, _, err := decodeCommit(payload)
			if err != nil {
				t.Fatalf("decoding first commit: %v", err)
			}
			firstTx = txid
			first = false
		}
		off += int64(n)
		b = b[n:]
		bounds = append(bounds, off)
	}
	return bounds, firstTx
}

// lastTxIn decodes the txid of the final frame in a sealed segment.
func lastTxIn(t *testing.T, b []byte) int64 {
	t.Helper()
	var last int64
	for len(b) > 0 {
		payload, n, err := frame.Next(b)
		if err != nil {
			t.Fatalf("stepping sealed segment: %v", err)
		}
		txid, _, err := decodeCommit(payload)
		if err != nil {
			t.Fatalf("decoding commit: %v", err)
		}
		last = txid
		b = b[n:]
	}
	return last
}

func TestCrashPointSweep(t *testing.T) {
	n := 120
	randomPerGap := 2
	if testing.Short() {
		n = 45
		randomPerGap = 1
	}
	states := oracleStates(t, n)

	// Build the crashed directory: small seals force several segments,
	// CompactEvery forces mid-run snapshots, Abort leaves the tail as a
	// kill -9 would.
	crashDir := t.TempDir()
	s, err := Open(Config{Dir: crashDir, SealBytes: 300, CompactEvery: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sweepWorkload(s, i); err != nil {
			t.Fatalf("crash-run commit %d: %v", i, err)
		}
	}
	s.Abort()

	segs, err := layout.Segments(crashDir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("want several segments for a meaningful sweep, have %v (%v)", segs, err)
	}
	snaps, err := layout.Images(crashDir)
	if err != nil || len(snaps) == 0 {
		t.Fatalf("want mid-run snapshots, have %v (%v)", snaps, err)
	}
	newestSnap := snaps[len(snaps)-1]

	finalSeg := segs[len(segs)-1]
	finalPath := layout.SegName(finalSeg)
	orig, err := os.ReadFile(filepath.Join(crashDir, finalPath))
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int64
	var firstTx int64
	if len(orig) > 0 {
		bounds, firstTx = frameBoundaries(t, orig)
	} else {
		// A seal can leave the final segment empty; every commit then
		// lives in prior segments and survives any cut of this file.
		bounds = []int64{0}
		prior, err := os.ReadFile(filepath.Join(crashDir, layout.SegName(segs[len(segs)-2])))
		if err != nil {
			t.Fatal(err)
		}
		firstTx = lastTxIn(t, prior) + 1
	}

	rng := rand.New(rand.NewSource(42))
	type point struct {
		off      int64
		boundary bool
	}
	var points []point
	for i, b := range bounds {
		points = append(points, point{b, true})
		if i+1 < len(bounds) {
			for r := 0; r < randomPerGap; r++ {
				gap := bounds[i+1] - b
				if gap > 1 {
					points = append(points, point{b + 1 + rng.Int63n(gap-1), false})
				}
			}
		}
	}

	for _, pt := range points {
		pt := pt
		name := fmt.Sprintf("trunc=%d", pt.off)
		if !pt.boundary {
			name += "-midframe"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, crashDir, dir)
			if err := os.Truncate(filepath.Join(dir, finalPath), pt.off); err != nil {
				t.Fatal(err)
			}

			// Independent expectation from the on-disk bytes: complete
			// frames at or before the truncation point, floored at the
			// newest snapshot (which may sit past the cut in the same
			// segment — its state is durable regardless of the log tail).
			survivors := int64(0)
			for _, b := range bounds[1:] {
				if b <= pt.off {
					survivors++
				}
			}
			expectTx := firstTx - 1 + survivors
			if int64(newestSnap) > expectTx {
				expectTx = int64(newestSnap)
			}

			s2, err := Open(Config{Dir: dir, SealBytes: 300, CompactEvery: 13})
			if err != nil {
				t.Fatalf("recovery at truncation %d: %v", pt.off, err)
			}
			defer s2.Abort()

			gotTx := s2.Metrics().NextTx - 1
			if gotTx != expectTx {
				t.Fatalf("recovered through tx %d, bytes say %d must survive", gotTx, expectTx)
			}
			if got, want := s2.Dump(), states[expectTx]; !reflect.DeepEqual(got, want) {
				t.Fatalf("state after recovery != oracle after %d commits:\n got %v\nwant %v",
					expectTx, got, want)
			}
			if !pt.boundary && s2.Recovery.TornTailsTruncated != 1 {
				t.Fatalf("mid-frame cut: TornTailsTruncated = %d, want 1",
					s2.Recovery.TornTailsTruncated)
			}
			// Compaction must keep recovery from re-reading the whole log.
			if total := s2.Recovery.RecoveryReadBytes + s2.Recovery.SkippedSegBytes; s2.Recovery.RestoredTx > 0 && total > 0 {
				if s2.Recovery.RecoveryReadBytes >= total && s2.Recovery.SkippedSegBytes == 0 && len(segs) > 2 {
					t.Fatalf("recovery read the entire log (%d bytes) despite snapshot at tx %d",
						s2.Recovery.RecoveryReadBytes, s2.Recovery.RestoredTx)
				}
			}

			// The recovered store must keep working: commit once more and
			// confirm durability through one further reopen.
			if err := sweepWorkload(s2, n); err != nil {
				t.Fatalf("post-recovery commit: %v", err)
			}
			want2 := s2.Dump()
			s2.Abort()
			s3, err := Open(Config{Dir: dir, SealBytes: 300, CompactEvery: 13})
			if err != nil {
				t.Fatalf("second recovery: %v", err)
			}
			defer s3.Abort()
			if got := s3.Dump(); !reflect.DeepEqual(got, want2) {
				t.Fatalf("second recovery lost the post-recovery commit")
			}
		})
	}
}

// TestCrashPointSweepSnapshotLoss extends the sweep across the
// snapshot chain: delete the newest snapshot (as if it were torn away
// entirely) and recovery must fall back to the previous one, replay a
// longer suffix, and still land on the oracle state.
func TestCrashPointSweepSnapshotLoss(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 40
	}
	states := oracleStates(t, n)

	crashDir := t.TempDir()
	s, err := Open(Config{Dir: crashDir, SealBytes: 300, CompactEvery: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := sweepWorkload(s, i); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort()

	snaps, err := layout.Images(crashDir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >=2 retained snapshots, have %v (%v)", snaps, err)
	}

	dir := t.TempDir()
	copyDir(t, crashDir, dir)

	withNewest, err := Open(Config{Dir: dir, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	newestRead := withNewest.Recovery.RecoveryReadBytes
	withNewest.Abort()

	dir2 := t.TempDir()
	copyDir(t, crashDir, dir2)
	if err := os.Remove(filepath.Join(dir2, layout.ImgName(snaps[len(snaps)-1]))); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Config{Dir: dir2, CompactEvery: -1})
	if err != nil {
		t.Fatalf("recovery without newest snapshot: %v", err)
	}
	defer s2.Abort()
	if got, want := s2.Dump(), states[n]; !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback recovery != oracle:\n got %v\nwant %v", got, want)
	}
	if s2.Recovery.RestoredTx != snaps[len(snaps)-2] {
		t.Fatalf("RestoredTx = %d, want fallback snapshot %d",
			s2.Recovery.RestoredTx, snaps[len(snaps)-2])
	}
	if s2.Recovery.RecoveryReadBytes <= newestRead {
		t.Fatalf("fallback read %d bytes, newest-snapshot path read %d: fallback should replay more",
			s2.Recovery.RecoveryReadBytes, newestRead)
	}
}
