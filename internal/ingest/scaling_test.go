package ingest

import (
	"testing"
	"time"
)

// TestRecoverySuffixScaling measures recovery cost as a function of
// the WAL suffix behind the newest surviving checkpoint: crash with
// progressively staler checkpoints (dropping the newest 0..k) and
// record RecoveryReadBytes plus wall-clock Open time. The structural
// assertion is that bytes read track the suffix exactly; the logged
// table feeds EXPERIMENTS.md.
func TestRecoverySuffixScaling(t *testing.T) {
	const n, per = 128, 8
	src := newSourceRun(t, "clickcount", n, per)
	every := int(src.cfg.CheckpointEvery)
	nCkpts := len(src.ckptSeqs)
	t.Logf("%-8s %-14s %-18s %-12s", "dropped", "replay batches", "recovery read (B)", "open time")
	prevRead := int64(-1)
	for drop := 0; drop < nCkpts && drop <= 8; drop += 2 {
		dir := src.buildCrashDir(src.total, drop)
		start := time.Now()
		s, err := Open(testCfg(t, dir, "clickcount"))
		if err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		elapsed := time.Since(start)
		r := s.Recovery
		restored := src.ckptSeqs[nCkpts-1-drop]
		wantReplay := int64(n) - restored
		if r.ReplayedBatches != wantReplay {
			t.Fatalf("drop %d: replayed %d batches, want %d (ckpt every %d)", drop, r.ReplayedBatches, wantReplay, every)
		}
		if r.RecoveryReadBytes != src.total-src.batchEnd[restored] {
			t.Fatalf("drop %d: read %d bytes, want suffix %d", drop, r.RecoveryReadBytes, src.total-src.batchEnd[restored])
		}
		if r.RecoveryReadBytes <= prevRead {
			t.Fatalf("drop %d: recovery read did not grow with suffix (%d after %d)", drop, r.RecoveryReadBytes, prevRead)
		}
		prevRead = r.RecoveryReadBytes
		t.Logf("%-8d %-14d %-18d %-12s", drop, r.ReplayedBatches, r.RecoveryReadBytes, elapsed.Round(10*time.Microsecond))
		drainStats(t, s)
	}
}

// BenchmarkIngestAppendSeal measures the durable ingest path: batch
// encode, CRC frame, write, fsync, and periodic seal — the per-batch
// cost a client pays before its acknowledgment.
func BenchmarkIngestAppendSeal(b *testing.B) {
	cfg := testCfg(b, b.TempDir(), "clickcount")
	cfg.SealBytes = 1 << 20
	cfg.CheckpointEvery = -1 // isolate the WAL from checkpoint cost
	cfg.MaxInflightBytes = 1 << 40
	cfg.queueDepth = 1 << 16
	s, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const per = 64
	batch := testBatch(1, per)
	var bytes int64
	for _, rec := range batch {
		bytes += int64(len(rec))
	}
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ingest(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	drainStats(b, s)
}
