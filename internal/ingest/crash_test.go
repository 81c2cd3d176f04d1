package ingest

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/frame"
	"repro/internal/seglog"
)

// sourceRun is an instrumented ingestion run used to manufacture
// crash states: every batch fully acknowledged and folded, every
// checkpoint retained (retention effectively disabled), then Abort —
// so the directory holds the complete WAL plus the full checkpoint
// history, and any kill -9 moment can be reconstructed by truncating
// a copy at a chosen global WAL byte offset and including exactly the
// checkpoints that existed by then.
type sourceRun struct {
	t        *testing.T
	dir      string
	query    string
	n, per   int
	cfg      Config
	batchEnd []int64 // batchEnd[i] = global WAL offset just past batch i (index 0 = 0)
	segs     []int64 // segment indexes in order
	segSize  map[int64]int64
	total    int64
	ckptSeqs []int64 // checkpoint seqs present, ascending
}

func newSourceRun(t *testing.T, query string, n, per int) *sourceRun {
	t.Helper()
	src := &sourceRun{
		t: t, dir: t.TempDir(), query: query, n: n, per: per,
		segSize: map[int64]int64{},
	}
	src.cfg = testCfg(t, src.dir, query)
	src.cfg.retain = 1 << 20 // keep the whole history

	// Simulate the WAL layout batch by batch; asserted against the
	// real files below so the model can never drift from wal.append.
	src.batchEnd = make([]int64, n+1)
	seg, off := int64(1), int64(0)
	src.segs = []int64{1}
	for i := 1; i <= n; i++ {
		framed := int64(len(frame.Append(nil, appendBatch(nil, int64(i), testBatch(i, per)))))
		off += framed
		src.total += framed
		src.batchEnd[i] = src.total
		if off >= src.cfg.SealBytes {
			src.segSize[seg] = off
			seg++
			off = 0
			src.segs = append(src.segs, seg)
		}
	}
	src.segSize[seg] = off

	s, err := Open(src.cfg)
	if err != nil {
		t.Fatalf("source open: %v", err)
	}
	ingestRange(t, s, 1, n, per)
	for ck := src.cfg.CheckpointEvery; ck <= int64(n); ck += src.cfg.CheckpointEvery {
		src.ckptSeqs = append(src.ckptSeqs, ck)
	}
	waitFoldedAndCkpts(t, s, int64(n), int64(len(src.ckptSeqs)))
	s.Abort()

	for _, idx := range src.segs {
		st, err := os.Stat(filepath.Join(src.dir, layout.SegName(idx)))
		if err != nil || st.Size() != src.segSize[idx] {
			t.Fatalf("segment %d: simulated %d bytes, on disk %v (%v) — layout model drifted",
				idx, src.segSize[idx], st, err)
		}
	}
	return src
}

// fullBatchesAt returns how many batches are completely framed within
// the first cut bytes of the WAL.
func (src *sourceRun) fullBatchesAt(cut int64) int64 {
	var k int64
	for i := 1; i <= src.n; i++ {
		if src.batchEnd[i] <= cut {
			k = int64(i)
		}
	}
	return k
}

// buildCrashDir reconstructs the directory as a crash at global WAL
// offset cut would leave it: segment files truncated to the cut, and
// only checkpoints durable by then (dropCkpts newest ones removed to
// model a folder that lagged behind the WAL).
func (src *sourceRun) buildCrashDir(cut int64, dropCkpts int) string {
	src.t.Helper()
	dir := src.t.TempDir()
	g := int64(0)
	for _, idx := range src.segs {
		size := src.segSize[idx]
		if cut > g {
			n := size
			if cut-g < n {
				n = cut - g
			}
			data, err := os.ReadFile(filepath.Join(src.dir, layout.SegName(idx)))
			if err != nil {
				src.t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, layout.SegName(idx)), data[:n], 0o644); err != nil {
				src.t.Fatal(err)
			}
		}
		g += size
	}
	included := []int64{}
	for _, s := range src.ckptSeqs {
		if src.batchEnd[s] <= cut {
			included = append(included, s)
		}
	}
	if dropCkpts > len(included) {
		dropCkpts = len(included)
	}
	included = included[:len(included)-dropCkpts]
	for _, s := range included {
		data, err := os.ReadFile(filepath.Join(src.dir, layout.ImgName(s)))
		if err != nil {
			src.t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, layout.ImgName(s)), data, 0o644); err != nil {
			src.t.Fatal(err)
		}
	}
	return dir
}

// runTrial recovers a crash state, verifies the recovery accounting,
// re-ingests the unacknowledged tail (client-retry semantics), drains,
// and demands bit-identical answers vs the oracle.
func (src *sourceRun) runTrial(cut int64, dropCkpts int, oracle Stats) {
	t := src.t
	t.Helper()
	dir := src.buildCrashDir(cut, dropCkpts)
	cfg := testCfg(t, dir, src.query)
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("cut %d drop %d: open: %v", cut, dropCkpts, err)
	}
	copied := cut
	if copied > src.total {
		copied = src.total
	}
	recovered := src.fullBatchesAt(copied)
	if got := s.ackedBatches.Load(); got != recovered {
		t.Fatalf("cut %d drop %d: recovered %d batches, want %d", cut, dropCkpts, got, recovered)
	}
	// The newest surviving checkpoint bounds what recovery may read:
	// exactly the WAL bytes after it, never a byte of the prefix it
	// already covers.
	var included []int64
	for _, cs := range src.ckptSeqs {
		if src.batchEnd[cs] <= copied {
			included = append(included, cs)
		}
	}
	if dropCkpts > len(included) {
		dropCkpts = len(included)
	}
	included = included[:len(included)-dropCkpts]
	var ckptPos int64
	if len(included) > 0 {
		ckptPos = src.batchEnd[included[len(included)-1]]
	}
	if r := s.Recovery; r.RecoveryReadBytes != copied-ckptPos {
		t.Fatalf("cut %d drop %d: RecoveryReadBytes=%d, want suffix %d (ckpt at %d)",
			cut, dropCkpts, r.RecoveryReadBytes, copied-ckptPos, ckptPos)
	}
	wantTorn := int64(0)
	if copied != src.batchEnd[recovered] {
		wantTorn = 1
	}
	if r := s.Recovery; r.TornTailsTruncated != wantTorn {
		t.Fatalf("cut %d drop %d: TornTailsTruncated=%d, want %d", cut, dropCkpts, r.TornTailsTruncated, wantTorn)
	}
	ingestRange(t, s, int(recovered)+1, src.n, src.per)
	got := drainStats(t, s)
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("cut %d drop %d: recovered run diverged:\n got %+v\nwant %+v", cut, dropCkpts, got, oracle)
	}
}

// TestCrashRecoverySweep is the randomized kill-point conformance
// sweep: for cuts at every batch boundary plus random mid-frame
// offsets (torn tails), with and without the newest checkpoint (a
// lagging folder), a recovered run must produce answers bit-identical
// to one that never crashed.
func TestCrashRecoverySweep(t *testing.T) {
	queries := []string{"clickcount", "sessionization"}
	if testing.Short() {
		queries = queries[1:] // sessionization exercises every hook
	}
	for _, query := range queries {
		t.Run(query, func(t *testing.T) {
			n, per := 90, 5
			randomCuts := 45
			if testing.Short() {
				n, randomCuts = 45, 12
			}
			oracle := oracleStats(t, query, n, per)
			src := newSourceRun(t, query, n, per)
			rng := rand.New(rand.NewSource(0x5ee_d0 + int64(len(query))))

			cuts := []int64{0, src.total}
			if testing.Short() {
				for i := 7; i <= n; i += 7 {
					cuts = append(cuts, src.batchEnd[i])
				}
			} else {
				cuts = append(cuts, src.batchEnd[1:]...)
			}
			for i := 0; i < randomCuts; i++ {
				cuts = append(cuts, rng.Int63n(src.total+1))
			}
			for _, cut := range cuts {
				drop := 0
				if rng.Intn(2) == 1 {
					drop = 1
				}
				src.runTrial(cut, drop, oracle)
			}
		})
	}
}

// TestSealedBoundaryRecovery kills the service exactly at every
// sealed-segment boundary — the moment a segment closes is the
// riskiest handoff in the WAL lifecycle — and requires clean recovery
// (no torn-tail truncation) with bit-identical answers.
func TestSealedBoundaryRecovery(t *testing.T) {
	const n, per = 90, 5
	oracle := oracleStats(t, "sessionization", n, per)
	src := newSourceRun(t, "sessionization", n, per)
	if len(src.segs) < 3 {
		t.Fatalf("stream too small to seal segments: %v", src.segs)
	}
	g := int64(0)
	for _, idx := range src.segs[:len(src.segs)-1] { // sealed ones only
		g += src.segSize[idx]
		boundary := g
		t.Run(fmt.Sprintf("after-%s", layout.SegName(idx)), func(t *testing.T) {
			dir := src.buildCrashDir(boundary, 0)
			s, err := Open(testCfg(t, dir, src.query))
			if err != nil {
				t.Fatalf("open at boundary %d: %v", boundary, err)
			}
			if r := s.Recovery; r.TornTailsTruncated != 0 {
				t.Fatalf("boundary cut truncated a tail: %+v", r)
			}
			recovered := src.fullBatchesAt(boundary)
			ingestRange(t, s, int(recovered)+1, n, per)
			if got := drainStats(t, s); !reflect.DeepEqual(got, oracle) {
				t.Fatalf("boundary %d diverged:\n got %+v\nwant %+v", boundary, got, oracle)
			}
		})
	}
}

// TestTornAppendWedgesAndRecovers injects a torn write (the frame cut
// mid-payload) on one batch: the service must refuse the batch, wedge,
// and a reopen must truncate the torn tail and resume to bit-identical
// answers.
func TestTornAppendWedgesAndRecovers(t *testing.T) {
	const n, per, tornAt = 40, 5, 9
	oracle := oracleStats(t, "clickcount", n, per)
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.Fail = &Failpoints{Failpoints: seglog.Failpoints{TornAppend: func(seq int64) int {
		if seq == tornAt {
			return 11 // cut mid-frame
		}
		return -1
	}}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, tornAt-1, per)
	if _, err := s.Ingest(testBatch(tornAt, per)); !errors.Is(err, ErrCrash) {
		t.Fatalf("torn append returned %v", err)
	}
	if err := s.Healthy(); err == nil {
		t.Fatal("service healthy after torn append")
	}
	if _, err := s.Ingest(testBatch(tornAt, per)); !errors.Is(err, ErrCrash) {
		t.Fatalf("wedged service accepted a batch: %v", err)
	}
	s.Abort()

	s2, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if r := s2.Recovery; r.TornTailsTruncated != 1 {
		t.Fatalf("torn tail not truncated: %+v", r)
	}
	if got := s2.ackedBatches.Load(); got != tornAt-1 {
		t.Fatalf("recovered %d batches, want %d", got, tornAt-1)
	}
	ingestRange(t, s2, tornAt, n, per)
	if got := drainStats(t, s2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("diverged after torn append:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestFsyncFailpoint fails the pre-ack fsync on one batch: the client
// sees an error (no acknowledgment), but the fully-written frame may
// legitimately survive — sequence-numbered retries make that safe.
func TestFsyncFailpoint(t *testing.T) {
	const n, per, failAt = 30, 5, 6
	oracle := oracleStats(t, "clickcount", n, per)
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.Fail = &Failpoints{Failpoints: seglog.Failpoints{BeforeSync: func(seq int64) error {
		if seq == failAt {
			return fmt.Errorf("fsync of batch %d: %w", seq, ErrCrash)
		}
		return nil
	}}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, failAt-1, per)
	if _, err := s.Ingest(testBatch(failAt, per)); !errors.Is(err, ErrCrash) {
		t.Fatalf("failed fsync returned %v", err)
	}
	s.Abort()
	s2, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recovered := int(s2.ackedBatches.Load())
	if recovered != failAt-1 && recovered != failAt {
		t.Fatalf("recovered %d batches, want %d or %d", recovered, failAt-1, failAt)
	}
	ingestRange(t, s2, recovered+1, n, per)
	if got := drainStats(t, s2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("diverged after fsync failure:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestSealFailpoint fails the segment seal: the triggering batch was
// already fsynced (durable), so recovery must keep it.
func TestSealFailpoint(t *testing.T) {
	const n, per = 60, 5
	oracle := oracleStats(t, "clickcount", n, per)
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.Fail = &Failpoints{Failpoints: seglog.Failpoints{BeforeSeal: func(seg int64) error {
		return fmt.Errorf("seal of segment %d: %w", seg, ErrCrash)
	}}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failedAt int
	for b := 1; b <= n; b++ {
		if _, err := s.Ingest(testBatch(b, per)); err != nil {
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("batch %d: %v", b, err)
			}
			failedAt = b
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("no seal ever triggered; shrink SealBytes")
	}
	s.Abort()
	s2, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The batch whose append triggered the seal was synced before the
	// seal ran: it must have survived.
	if got := int(s2.ackedBatches.Load()); got != failedAt {
		t.Fatalf("recovered %d batches, want %d", got, failedAt)
	}
	ingestRange(t, s2, failedAt+1, n, per)
	if got := drainStats(t, s2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("diverged after seal failure:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestTornCheckpointFallsBack tears the second checkpoint mid-write:
// the fold wedges (a crash would have), and recovery must discard the
// torn file, restore the previous checkpoint, and replay the longer
// suffix — same answers.
func TestTornCheckpointFallsBack(t *testing.T) {
	const n, per = 40, 5
	oracle := oracleStats(t, "sessionization", n, per)
	dir := t.TempDir()
	cfg := testCfg(t, dir, "sessionization")
	tornSeq := 2 * cfg.CheckpointEvery
	cfg.Fail = &Failpoints{Failpoints: seglog.Failpoints{TornImage: func(seq int64) int {
		if seq == tornSeq {
			return 25
		}
		return -1
	}}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= n; b++ {
		if _, err := s.Ingest(testBatch(b, per)); err != nil {
			break // wedged once the torn checkpoint hits
		}
	}
	waitWedged(t, s)
	s.Abort()

	s2, err := Open(testCfg(t, dir, "sessionization"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	r := s2.Recovery
	if r.CheckpointsDiscardedTorn != 1 {
		t.Fatalf("torn checkpoint not discarded: %+v", r)
	}
	if r.RestoredSeq != cfg.CheckpointEvery {
		t.Fatalf("restored seq %d, want fallback to %d", r.RestoredSeq, cfg.CheckpointEvery)
	}
	recovered := int(s2.ackedBatches.Load())
	ingestRange(t, s2, recovered+1, n, per)
	if got := drainStats(t, s2); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("diverged after torn checkpoint:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestCorruptCheckpointFallsBack flips one byte in the newest
// checkpoint of a crashed directory: recovery must detect it (CRC),
// fall back to the older checkpoint, and still converge.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	const n, per = 40, 5
	oracle := oracleStats(t, "clickcount", n, per)
	src := newSourceRun(t, "clickcount", n, per)
	dir := src.buildCrashDir(src.total, 0)
	newest := src.ckptSeqs[len(src.ckptSeqs)-1]
	path := filepath.Join(dir, layout.ImgName(newest))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("open with corrupt checkpoint: %v", err)
	}
	r := s.Recovery
	if r.CheckpointsDiscardedCorrupt != 1 || r.RestoredSeq >= newest {
		t.Fatalf("corrupt checkpoint not skipped: %+v", r)
	}
	if got := drainStats(t, s); !reflect.DeepEqual(got, oracle) {
		t.Fatalf("diverged after corrupt checkpoint:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestCorruptSealedSegmentRefusesStart flips one byte inside a sealed
// WAL segment: that data was acknowledged, so recovery must fail
// loudly (naming segment, offset, and reason) rather than truncate.
func TestCorruptSealedSegmentRefusesStart(t *testing.T) {
	const n, per = 90, 5
	src := newSourceRun(t, "clickcount", n, per)
	dir := src.buildCrashDir(src.total, len(src.ckptSeqs)) // no checkpoints: full replay
	path := filepath.Join(dir, layout.SegName(src.segs[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(testCfg(t, dir, "clickcount"))
	var segErr *SegmentError
	if !errors.As(err, &segErr) {
		t.Fatalf("corrupt sealed segment: %v", err)
	}
	if segErr.Reason != frame.ScanCorrupt || segErr.Segment != layout.SegName(src.segs[0]) {
		t.Fatalf("wrong diagnosis: %+v", segErr)
	}
}

// waitWedged waits for the fold goroutine to wedge the service.
func waitWedged(t testing.TB, s *Ingester) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if s.Healthy() != nil {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("service never wedged")
}
