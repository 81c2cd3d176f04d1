package ingest

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/mr"
	"repro/internal/queries"
)

// TestFoldAllocatesNothingForKnownKeys: folding a batch whose keys are
// all resident allocates what the query's own Map allocates and nothing
// more, for every standard query. An answer a threshold query emits
// early allocates its value in the query's TryEmit; trigram's rare
// trigrams would cross its threshold while the batch is folded again
// and again, so here its threshold is out of reach.
func TestFoldAllocatesNothingForKnownKeys(t *testing.T) {
	const per = 512
	for _, query := range []string{"sessionization", "clickcount", "frequsers", "pagefreq", "trigram"} {
		t.Run(query, func(t *testing.T) {
			factory, _, err := StandardQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			if query == "trigram" {
				factory = func() mr.Query { return queries.NewTrigramCount(math.MaxInt64) }
			}
			f, err := newFolder(query, factory, 0)
			if err != nil {
				t.Fatal(err)
			}
			batch := queryBatch(query, 1, per)
			f.fold(1, batch) // every key of the batch is resident from here on
			folds := testing.AllocsPerRun(50, func() { f.fold(1, batch) })
			q, emit := factory(), func(k, v []byte) {}
			maps := testing.AllocsPerRun(50, func() {
				for _, rec := range batch {
					q.Map(rec, emit)
				}
			})
			if folds > maps {
				t.Fatalf("a fold of %d records on known keys allocates %.0f times, its Maps %.0f", per, folds, maps)
			}
		})
	}
}

// TestScavengerFreesTheFold: once a stream's sessions have expired, a
// scan retires their keys and the fold's table shrinks to the states it
// keeps; a scan that retires nothing leaves the table as it is.
func TestScavengerFreesTheFold(t *testing.T) {
	factory, _, err := StandardQuery("sessionization")
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFolder("sessionization", factory, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.fold(1, crowdBatch(1, 100, 100)) // 100 users, one click each
	full := f.table.SizeBytes()
	f.fold(2, crowdBatch(101, 1, 100)) // user 0, eleven minutes on: every other session expired
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f.scavenge()
	runtime.ReadMemStats(&after)
	if f.table.Len() != 1 || f.scavenged != 99 || f.table.SizeBytes() >= full {
		t.Fatalf("after a scan: %d keys, %d retired, %d table bytes (%d before)", f.table.Len(), f.scavenged, f.table.SizeBytes(), full)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= uint64(full) {
		t.Fatalf("retiring 99 of 100 keys allocated %d B, the table held %d", n, full)
	}
	size := f.table.SizeBytes()
	if allocs := testing.AllocsPerRun(10, f.scavenge); allocs != 0 || f.table.SizeBytes() != size || f.scavenged != 99 {
		t.Fatalf("a scan that retired nothing allocated %.0f times, its table %d B → %d B", allocs, size, f.table.SizeBytes())
	}
}

// TestFullFoldSheds: on a stream where every record brings a new user,
// each batch is charged its bytes plus the most its fold can grow the
// table. While the fold keeps up, the table grows with every batch until
// it and the next charge fill the budget; from there ingest sheds. While
// the fold stalls, the charges fill the budget instead, so the batches
// acked ahead of it cannot carry the fold past it. Either way the fold
// and the unfolded charges pass the budget by at most the charge of the
// batch being folded and one doubling of the table's bucket array. Every
// acked batch is in the answer, and a reopened service holds exactly its
// restored fold in the budget.
func TestFullFoldSheds(t *testing.T) {
	t.Run("folding", func(t *testing.T) {
		const per, limit, users = 64, 64 << 10, 1 << 30
		dir := t.TempDir()
		cfg := testCfg(t, dir, "clickcount")
		cfg.Budget = budget.New(limit)
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		for b := 1; ; b++ {
			before := cfg.Budget.Snapshot()
			batch := crowdBatch(b, per, users)
			_, err := s.Ingest(batch)
			if errors.Is(err, ErrOverloaded) {
				if n := s.folder.charge(batch); before.Fold+before.Inflight+n <= limit {
					t.Fatalf("batch %d shed with fold %d + unfolded %d + its charge %d inside the budget", b, before.Fold, before.Inflight, n)
				}
				break
			}
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			acked = b
			waitFolded(t, s, int64(b))
			if after := cfg.Budget.Snapshot(); after.Fold > limit+bucketDoubling(acked*per) {
				t.Fatalf("batch %d: fold %d past the budget by more than a doubling of its buckets", b, after.Fold)
			}
			if acked > 1000 {
				t.Fatal("a fold of distinct users never filled the budget")
			}
		}
		if acked < 2 {
			t.Fatalf("shed after %d batches: the budget is too small to show the fold filling it", acked)
		}
		for i := 0; i < 20; i++ {
			if _, err := s.Ingest(crowdBatch(acked+1, per, users)); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("a full fold admitted a batch: %v", err)
			}
		}

		s.Abort()
		if b := cfg.Budget.Snapshot(); b.Fold != 0 || b.Log != 0 {
			t.Fatalf("an aborted service still holds %d fold and %d log bytes", b.Fold, b.Log)
		}
		s2, err := Open(cfg)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if fold, size := cfg.Budget.Snapshot().Fold, s2.folder.table.SizeBytes(); fold != size || s2.folder.table.Len() == 0 {
			t.Fatalf("reopened: the budget holds %d fold bytes, the restored table has %d", fold, size)
		}
		got := drainStats(t, s2)
		oracle, err := Open(testCfg(t, t.TempDir(), "clickcount"))
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= acked; b++ {
			if _, err := oracle.Ingest(crowdBatch(b, per, users)); err != nil {
				t.Fatalf("oracle batch %d: %v", b, err)
			}
		}
		want := drainStats(t, oracle)
		if got.Gamma != 1 || got.AckedBatches != int64(acked) || got.Keys != acked*per || !reflect.DeepEqual(got, want) {
			t.Fatalf("answer after reopen is not every acked batch's:\n got %+v\nwant %+v", got, want)
		}
	})

	// A sessionization state slot is 512 bytes, so a 45-byte click by a
	// new user grows the table about twelvefold once folded. The
	// scavenger is off, as it would idle while every session is open.
	t.Run("stalled", func(t *testing.T) {
		const per, limit, users = 64, 1 << 20, 1 << 30
		cfg := testCfg(t, t.TempDir(), "sessionization")
		cfg.Budget = budget.New(limit)
		cfg.scanEvery = -1
		gate := make(chan struct{})
		cfg.Fail = &Failpoints{FoldDelay: stalledFolds(gate, nil)}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acked, most := 0, int64(0)
		for b := 1; ; b++ {
			batch := crowdBatch(b, per, users)
			if _, err := s.Ingest(batch); errors.Is(err, ErrOverloaded) {
				break
			} else if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			acked, most = b, max(most, s.folder.charge(batch))
			if acked > 1000 {
				t.Fatal("a stalled fold never filled the budget")
			}
		}
		if acked < 2 {
			t.Fatalf("shed after %d batches: the budget is too small to show the charges filling it", acked)
		}
		close(gate)
		over := limit + most + bucketDoubling(acked*per)
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			b := cfg.Budget.Snapshot()
			if b.Fold+b.Inflight > over {
				t.Fatalf("fold %d + unfolded %d past the budget by more than a charge and a doubling (%d)", b.Fold, b.Inflight, over)
			}
			if b.Inflight == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the stalled batches never folded")
			}
		}
		if b := cfg.Budget.Snapshot(); b.Fold > limit+bucketDoubling(acked*per) {
			t.Fatalf("every acked batch folded: fold %d past the budget by more than a doubling of its buckets", b.Fold)
		}
		if st := drainStats(t, s); st.Gamma != 1 || st.FoldedRecords != int64(acked*per) || st.Keys != acked*per {
			t.Fatalf("acked batches missing from the answer: gamma %v, %d records folded, %d keys", st.Gamma, st.FoldedRecords, st.Keys)
		}
	})
}

// bucketDoubling bounds what one rehash of a table of keys keys adds to
// it beyond their charges (bytestore.EntryBytes): the bucket array it
// had, at most max(64, 8·keys/3) four-byte buckets.
func bucketDoubling(keys int) int64 { return max(256, 11*int64(keys)) }

func waitFolded(t *testing.T, s *Ingester, batches int64) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); s.Metrics().FoldedBatches < batches || s.cfg.Budget.Snapshot().Inflight != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("batch %d never folded", batches)
		}
	}
}
