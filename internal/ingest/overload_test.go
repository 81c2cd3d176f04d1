package ingest

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frame"
)

// TestOverloadShedsAndLosesNothing stalls the folder behind a gate
// and pushes batches until admission control engages. It then asserts
// the three overload guarantees: shed batches were never persisted
// (no accepted-then-lost ambiguity), accepted-but-unfolded bytes stay
// under the budget (memory is bounded), and after the stall clears —
// or after a crash mid-overload — every acknowledged batch is in the
// answer.
func TestOverloadShedsAndLosesNothing(t *testing.T) {
	const per = 40 // bigger batches so the byte budget binds
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.MaxInflightBytes = 16 << 10
	cfg.queueDepth = 128 // byte budget binds first
	gate := make(chan struct{})
	cfg.Fail = &Failpoints{FoldDelay: func(seq int64) {
		if seq > 1 { // first batch folds; the rest wait on the gate
			<-gate
		}
	}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Push until shed, then keep hammering: accepted count must freeze
	// and inflight bytes must never cross the budget.
	accepted := 0
	for b := 1; ; b++ {
		_, err := s.Ingest(testBatch(b, per))
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		accepted = b
		if accepted > 1000 {
			t.Fatal("admission control never engaged")
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := s.Ingest(testBatch(accepted+1, per)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overloaded service accepted work: %v", err)
		}
		if got := s.inflight.Load(); got > cfg.MaxInflightBytes {
			t.Fatalf("inflight %d exceeds budget %d", got, cfg.MaxInflightBytes)
		}
	}
	m := s.Metrics()
	if m.ShedBatches < 200 || m.AcceptedBatches != int64(accepted) {
		t.Fatalf("shed accounting: %+v", m)
	}

	// Nothing shed may exist in the WAL: the on-disk frame count must
	// equal the accepted count exactly.
	if frames := countWALBatches(t, dir); frames != int64(accepted) {
		t.Fatalf("WAL holds %d batches, %d were acknowledged", frames, accepted)
	}

	// Crash mid-overload: reopen must recover every acknowledged batch
	// and only those.
	close(gate)
	s.Abort()
	s2, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := s2.ackedBatches.Load(); got != int64(accepted) {
		t.Fatalf("recovered %d batches, want %d", got, accepted)
	}
	got := drainStats(t, s2)
	oracle := oracleStats(t, "clickcount", accepted, per)
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("post-overload recovery diverged:\n got %+v\nwant %+v", got, oracle)
	}
	if got.Gamma != 1 || got.FoldedBatches != int64(accepted) {
		t.Fatalf("acknowledged batches missing from answer: %+v", got)
	}
}

// TestOverloadRecoversAfterStall verifies 429s stop once the folder
// catches up — backpressure, not a death spiral.
func TestOverloadRecoversAfterStall(t *testing.T) {
	const per = 40
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.MaxInflightBytes = 8 << 10
	gate := make(chan struct{})
	var released atomic.Bool
	cfg.Fail = &Failpoints{FoldDelay: func(seq int64) {
		if !released.Load() {
			<-gate
		}
	}}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := 1
	for ; ; b++ {
		if _, err := s.Ingest(testBatch(b, per)); err != nil {
			if !errors.Is(err, ErrOverloaded) {
				t.Fatal(err)
			}
			break
		}
	}
	released.Store(true)
	close(gate)
	// The shed batch must eventually be accepted on retry.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if _, err := s.Ingest(testBatch(b, per)); err == nil {
			break
		} else if !errors.Is(err, ErrOverloaded) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("service never recovered from overload")
		}
		time.Sleep(time.Millisecond)
	}
	st := drainStats(t, s)
	if st.AckedBatches != int64(b) || st.Gamma != 1 {
		t.Fatalf("post-stall stats: %+v", st)
	}
}

// countWALBatches scans every segment and counts complete frames.
func countWALBatches(t testing.TB, dir string) int64 {
	t.Helper()
	segs, err := layout.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	for _, idx := range segs {
		data, err := os.ReadFile(fmt.Sprintf("%s/%s", dir, layout.SegName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		frames += int64(frame.ScanTail(data, nil).Frames)
	}
	return frames
}
