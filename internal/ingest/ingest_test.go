package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// testCfg is tuned tiny so a few hundred batches span several sealed
// segments and many checkpoints.
func testCfg(t testing.TB, dir, query string) Config {
	t.Helper()
	factory, validate, err := StandardQuery(query)
	if err != nil {
		t.Fatalf("StandardQuery(%s): %v", query, err)
	}
	return Config{
		Dir:              dir,
		QueryName:        query,
		NewQuery:         factory,
		Validate:         validate,
		SealBytes:        4 << 10,
		CheckpointEvery:  7,
		MaxInflightBytes: 1 << 20,
		queueDepth:       64,
		scanEvery:        64,
	}
}

// clickRec generates record i of the deterministic test stream: seven
// users interleaved, timestamps 977 ms apart with an 11-minute jump
// every 100 records so sessions expire (exercising early emission and
// scavenging under the 5-minute session gap).
func clickRec(i int) []byte {
	ts := int64(1_700_000_000_000) + int64(i)*977 + int64(i/100)*11*60*1000
	return []byte(fmt.Sprintf("%013d\tuser%04d\t/page%03d\t200\t%d\tMoz", ts, i%7, i%13, 100+i%17))
}

// docRec generates record i of the trigram stream: 20 words cycling
// over four, so their four trigrams pass the query's 1,000-count
// threshold within a few hundred records, then six rarer words whose
// trigrams stay below it.
func docRec(i int) []byte {
	var line []byte
	for j := 0; j < 20; j++ {
		line = fmt.Appendf(line, "w%06d ", (i+j)%4)
	}
	for j := 0; j < 6; j++ {
		line = fmt.Appendf(line, "w%06d ", 100+(i*7+j)%37)
	}
	return line[:len(line)-1]
}

// testBatch is 1-based batch b of the click stream, `per` records each.
func testBatch(b, per int) [][]byte { return queryBatch("", b, per) }

// queryBatch is batch b of the stream query parses: doc lines for
// trigram, clicks otherwise.
func queryBatch(query string, b, per int) [][]byte {
	rec := clickRec
	if query == "trigram" {
		rec = docRec
	}
	recs := make([][]byte, per)
	for j := 0; j < per; j++ {
		recs[j] = rec((b-1)*per + j)
	}
	return recs
}

// ingestRange sends batches [from, to] (1-based, inclusive) of the
// stream s's query parses, retrying on backpressure the way a real
// client would on 429.
func ingestRange(t testing.TB, s *Ingester, from, to, per int) {
	t.Helper()
	for b := from; b <= to; b++ {
		var seq int64
		var err error
		for {
			seq, err = s.Ingest(queryBatch(s.cfg.QueryName, b, per))
			if !errors.Is(err, ErrOverloaded) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			t.Fatalf("ingest batch %d: %v", b, err)
		}
		if seq != int64(b) {
			t.Fatalf("batch %d acked as seq %d", b, seq)
		}
	}
}

func drainStats(t testing.TB, s *Ingester) Stats {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return s.Stats(0)
}

// oracleStats runs the full stream uninterrupted in a fresh directory
// — the reference every crash trial must match bit for bit.
func oracleStats(t testing.TB, query string, n, per int) Stats {
	t.Helper()
	s, err := Open(testCfg(t, t.TempDir(), query))
	if err != nil {
		t.Fatalf("oracle open: %v", err)
	}
	ingestRange(t, s, 1, n, per)
	return drainStats(t, s)
}

func waitFoldedAndCkpts(t testing.TB, s *Ingester, batches, ckpts int64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		m := s.Metrics()
		if m.FoldedBatches >= batches && m.Checkpoints >= ckpts {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fold never caught up: %+v", s.Metrics())
}

func TestIngestRoundTrip(t *testing.T) {
	const n, per = 40, 5
	s, err := Open(testCfg(t, t.TempDir(), "clickcount"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, n, per)
	st := drainStats(t, s)
	if st.AckedBatches != n || st.FoldedBatches != n || st.AckedRecords != n*per {
		t.Fatalf("counters: %+v", st)
	}
	if st.Gamma != 1 {
		t.Fatalf("drained gamma = %v", st.Gamma)
	}
	// clickcount answers per-user counts; the 7 users' counts must sum
	// to every record ingested.
	if st.TotalAnswers != 7 {
		t.Fatalf("answers: %+v", st.Answers)
	}
	sum := 0
	for _, a := range st.Answers {
		v, err := strconv.Atoi(a.Value)
		if err != nil {
			t.Fatalf("non-numeric count %q", a.Value)
		}
		sum += v
	}
	if sum != n*per {
		t.Fatalf("counts sum to %d, want %d", sum, n*per)
	}
}

func TestIngestRejects(t *testing.T) {
	s, err := Open(testCfg(t, t.TempDir(), "clickcount"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := s.Ingest([][]byte{[]byte("not a click")}); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad record: %v", err)
	}
	if m := s.Metrics(); m.RejectedRecords != 1 || m.AcceptedBatches != 0 {
		t.Fatalf("metrics after rejects: %+v", m)
	}
	drainStats(t, s)
}

func TestStatsLimit(t *testing.T) {
	s, err := Open(testCfg(t, t.TempDir(), "pagefreq"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, 20, 5)
	st := drainStats(t, s)
	if st.TotalAnswers != 13 { // 13 distinct pages in the stream
		t.Fatalf("total answers = %d", st.TotalAnswers)
	}
	limited := s.Stats(3)
	if len(limited.Answers) != 3 || limited.TotalAnswers != 13 {
		t.Fatalf("limited: %d answers, total %d", len(limited.Answers), limited.TotalAnswers)
	}
	none := s.Stats(-1)
	if none.Answers != nil || none.TotalAnswers != 0 {
		t.Fatalf("suppressed: %+v", none)
	}
}

// TestDrainRestartContinuity drains mid-stream and reopens: the final
// checkpoint must cover everything acknowledged, so the reopen replays
// nothing and the continued stream matches the uninterrupted oracle.
func TestDrainRestartContinuity(t *testing.T) {
	const n, per = 80, 5
	for _, query := range []string{"clickcount", "sessionization"} {
		t.Run(query, func(t *testing.T) {
			oracle := oracleStats(t, query, n, per)
			dir := t.TempDir()
			s, err := Open(testCfg(t, dir, query))
			if err != nil {
				t.Fatal(err)
			}
			ingestRange(t, s, 1, n/2, per)
			drainStats(t, s)

			s2, err := Open(testCfg(t, dir, query))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if r := s2.Recovery; r.ReplayedBatches != 0 || r.RecoveryReadBytes != 0 || r.RestoredSeq != n/2 {
				t.Fatalf("drained reopen should replay nothing: %+v", r)
			}
			ingestRange(t, s2, n/2+1, n, per)
			got := drainStats(t, s2)
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("continued run diverged:\n got %+v\nwant %+v", got, oracle)
			}
		})
	}
}

// TestCheckpointRetention verifies old checkpoints and fully-covered
// WAL segments are pruned while the chain keeps its fallback depth.
func TestCheckpointRetention(t *testing.T) {
	const n, per = 120, 5
	dir := t.TempDir()
	cfg := testCfg(t, dir, "clickcount")
	cfg.retain = 2
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, n, per)
	waitFoldedAndCkpts(t, s, n, int64(n/int(cfg.CheckpointEvery)))
	cks, _ := layout.Images(dir)
	if len(cks) != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", len(cks), cks)
	}
	segs, _ := layout.Segments(dir)
	data, err := os.ReadFile(filepath.Join(dir, layout.ImgName(cks[0])))
	if err != nil {
		t.Fatal(err)
	}
	oldest, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatalf("oldest retained checkpoint unreadable: %v", err)
	}
	for _, idx := range segs {
		if idx < oldest.Seg {
			t.Fatalf("segment %d survived pruning (oldest checkpoint needs %d)", idx, oldest.Seg)
		}
	}
	drainStats(t, s)
	// The directory must still recover after pruning.
	s2, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen pruned dir: %v", err)
	}
	if got := s2.Stats(0); got.AckedBatches != n {
		t.Fatalf("pruned reopen lost batches: %+v", got)
	}
	drainStats(t, s2)
}

// plainQuery implements mr.Query but not mr.Incremental.
type plainQuery struct{}

func (plainQuery) Name() string                                          { return "plain" }
func (plainQuery) Map(_ []byte, _ func(k, v []byte))                     {}
func (plainQuery) Reduce(_ []byte, _ kvenc.ValueIter, _ mr.OutputWriter) {}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Fatal("missing Dir accepted")
	}
	if _, err := Open(Config{Dir: t.TempDir()}); err == nil {
		t.Fatal("missing NewQuery accepted")
	}
	if _, _, err := StandardQuery("windowless"); err == nil {
		t.Fatal("unknown query name accepted")
	}
	cfg := testCfg(t, t.TempDir(), "clickcount")
	cfg.NewQuery = func() mr.Query { return plainQuery{} }
	if _, err := Open(cfg); !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("non-incremental query: %v", err)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	s, err := Open(testCfg(t, t.TempDir(), "clickcount"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, 10, 5)
	drainStats(t, s)
	m := s.Metrics()
	if m.AcceptedBatches != 10 || m.FoldedBatches != 10 || m.WALSyncs == 0 || m.Checkpoints == 0 {
		t.Fatalf("metrics: %+v", m)
	}
	if !m.Draining {
		t.Fatal("drained service not marked draining")
	}
	if st, err := os.Stat(filepath.Join(s.cfg.Dir, layout.SegName(1))); err != nil || st.Size() == 0 {
		t.Fatalf("segment 1 missing after run: %v", err)
	}
}
