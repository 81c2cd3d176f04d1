package ingest

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/queries"
	"repro/internal/reference"
)

// streamInput is batches [1, n] of query's test stream as one job
// input chunk, for the reference evaluator.
type streamInput struct {
	query  string
	n, per int
}

func (s streamInput) Name() string   { return "ingest-test-stream" }
func (s streamInput) NumChunks() int { return 1 }
func (s streamInput) ChunkBytes(int) []byte {
	var buf bytes.Buffer
	for b := 1; b <= s.n; b++ {
		for _, rec := range queryBatch(s.query, b, s.per) {
			buf.Write(rec)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// answerLines renders answers in the form every evaluator of query
// must agree on, sorted: threshold queries (frequsers, trigram) by
// key alone, because an early answer carries the count that crossed
// the threshold rather than the final total; sessionization without
// the session number, because the fold numbers a session when its gap
// expires; the rest as key and value.
func answerLines(query string, n int, kv func(i int) (string, string)) []string {
	lines := make([]string, n)
	for i := range lines {
		k, v := kv(i)
		switch query {
		case "frequsers", "trigram":
			v = ""
		case "sessionization":
			_, v, _ = strings.Cut(v, "\t")
		}
		lines[i] = k + "\x00" + v
	}
	slices.Sort(lines)
	return lines
}

// TestFoldMatchesReference holds the daemon's drained answers to the
// naive evaluator over the same records, for every standard query.
// Crash trials are held to oracleStats, so for their queries this
// reaches every recovery too.
func TestFoldMatchesReference(t *testing.T) {
	const n, per = 90, 5
	for _, query := range queries.Names {
		t.Run(query, func(t *testing.T) {
			st := oracleStats(t, query, n, per)
			if st.TotalAnswers == 0 {
				t.Fatal("the fold answered nothing")
			}
			factory, _, err := StandardQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := reference.RunWithWatermarks(factory(), streamInput{query, n, per})
			got := answerLines(query, len(st.Answers), func(i int) (string, string) { return st.Answers[i].Key, st.Answers[i].Value })
			ref := answerLines(query, len(want), func(i int) (string, string) { return want[i].Key, want[i].Value })
			if !slices.Equal(got, ref) {
				t.Fatalf("%d answers, reference %d; first difference at %d", len(got), len(ref), firstDiff(got, ref))
			}
		})
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestMetricsGammaAfterRestart pins /metricsz's γ to Stats': both are
// folded over acknowledged records, counted over the directory's whole
// history, so a drained restart is exact and stays exact as it folds
// more.
func TestMetricsGammaAfterRestart(t *testing.T) {
	const per = 5
	dir := t.TempDir()
	s, err := Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatal(err)
	}
	ingestRange(t, s, 1, 20, per)
	drainStats(t, s)

	s, err = Open(testCfg(t, dir, "clickcount"))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	exact := func(when string) {
		t.Helper()
		if m, st := s.Metrics().Gamma, s.Stats(-1).Gamma; m != 1 || st != 1 {
			t.Fatalf("%s: Metrics().Gamma = %v, Stats(-1).Gamma = %v, want 1", when, m, st)
		}
	}
	exact("reopened")
	ingestRange(t, s, 21, 22, per)
	drainStats(t, s)
	exact("folded more")
}
