// Contract tests for the mr programming model, exercised through the
// real paper queries (internal/queries): the doc-comment promises —
// reduce ≡ init+merge+finalize, the MergeStates aliasing rule,
// combiner consistency, RecordTime purity — are what the engines rely
// on, so they get pinned here rather than re-asserted per platform.
package mr_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
)

// sliceIter adapts a value slice to kvenc.ValueIter.
type sliceIter struct {
	vals [][]byte
	i    int
}

func (s *sliceIter) Next() ([]byte, bool) {
	if s.i >= len(s.vals) {
		return nil, false
	}
	v := s.vals[s.i]
	s.i++
	return v, true
}

var _ kvenc.ValueIter = (*sliceIter)(nil)

// click builds a record in the internal/workload layout:
// ts(13) \t user(8) \t url \t status \t bytes \t agent.
func click(ts int64, user, url string) []byte {
	if len(user) != 8 {
		panic(fmt.Sprintf("user %q must be exactly 8 bytes", user))
	}
	return []byte(fmt.Sprintf("%013d\t%s\t%s\t200\t1234\tUA-test", ts, user, url))
}

// testClicks is a small stream with skew: user0000 clicks 5 times,
// user0001 3 times, user0002 once; two URLs.
func testClicks() [][]byte {
	var recs [][]byte
	add := func(n int, user, url string) {
		for i := 0; i < n; i++ {
			recs = append(recs, click(int64(1300000000000+len(recs)*1000), user, url))
		}
	}
	add(5, "user0000", "/home")
	add(3, "user0001", "/home")
	add(1, "user0002", "/about")
	return recs
}

// mapGroups runs a query's map function over records and groups the
// emitted values by key, preserving emission order within a key.
func mapGroups(q mr.Query, records [][]byte) map[string][][]byte {
	groups := map[string][][]byte{}
	for _, rec := range records {
		q.Map(rec, func(k, v []byte) {
			groups[string(k)] = append(groups[string(k)],
				append([]byte(nil), v...))
		})
	}
	return groups
}

// reduceAll applies Reduce to every group and collects the output.
func reduceAll(q mr.Query, groups map[string][][]byte) map[string]string {
	out := map[string]string{}
	for k, vals := range groups {
		q.Reduce([]byte(k), &sliceIter{vals: vals}, mr.FuncOutput(func(key, value []byte) {
			out[string(key)] = string(value)
		}))
	}
	return out
}

// incrementalAll runs each group through the init/merge/finalize path.
func incrementalAll(q mr.Incremental, groups map[string][][]byte) map[string]string {
	out := map[string]string{}
	for k, vals := range groups {
		key := []byte(k)
		state := q.Init(nil, key, vals[0])
		for _, v := range vals[1:] {
			state = q.MergeStates(nil, key, state, q.Init(nil, key, v))
		}
		q.Finalize(key, state, mr.FuncOutput(func(key, value []byte) {
			out[string(key)] = string(value)
		}))
	}
	return out
}

// contractQueries are the counting queries every contract test runs
// against; threshold 3 makes frequsers drop one user and keep two.
func contractQueries() map[string]mr.Query {
	return map[string]mr.Query{
		"clickcount": queries.NewClickCount(),
		"pagefreq":   queries.NewPageFrequency(),
		"frequsers":  queries.NewFrequentUsers(3),
	}
}

// TestReduceEquivalentToIncremental pins the Incremental doc contract:
// "the original reduce function is equivalent to cb followed by fn".
func TestReduceEquivalentToIncremental(t *testing.T) {
	for name, q := range contractQueries() {
		t.Run(name, func(t *testing.T) {
			inc, ok := q.(mr.Incremental)
			if !ok {
				t.Fatalf("%s does not implement mr.Incremental", name)
			}
			groups := mapGroups(q, testClicks())
			if len(groups) == 0 {
				t.Fatal("map produced no groups")
			}
			direct := reduceAll(q, groups)
			viaStates := incrementalAll(inc, groups)
			if len(direct) == 0 && name != "frequsers" {
				t.Fatal("direct reduce produced no output")
			}
			if fmt.Sprint(direct) != fmt.Sprint(viaStates) {
				t.Fatalf("reduce %v != init+merge+finalize %v", direct, viaStates)
			}
		})
	}
}

// TestMergeStatesAliasing pins the aliasing rule platforms depend on
// for memory-pressure fallback: MergeStates must either mutate a in
// place without changing its length, or build a fresh state leaving a
// intact.
func TestMergeStatesAliasing(t *testing.T) {
	for name, q := range contractQueries() {
		t.Run(name, func(t *testing.T) {
			inc := q.(mr.Incremental)
			key := []byte("user0000")
			a := inc.Init(nil, key, []byte("1"))
			b := inc.Init(nil, key, []byte("1"))
			aCopy := append([]byte(nil), a...)
			aLen := len(a)
			merged := inc.MergeStates(nil, key, a, b)
			aliases := len(a) > 0 && len(merged) > 0 && &a[0] == &merged[0]
			if aliases {
				if len(merged) != aLen {
					t.Fatalf("merged state aliases a but changed length %d → %d", aLen, len(merged))
				}
			} else if !bytes.Equal(a, aCopy) {
				t.Fatalf("MergeStates built a fresh state but mutated a: %x → %x", aCopy, a)
			}
		})
	}
}

// TestCombinerConsistency pins the Combiner contract: pre-aggregating
// value sublists with Combine must not change what Reduce answers.
func TestCombinerConsistency(t *testing.T) {
	for name, q := range contractQueries() {
		t.Run(name, func(t *testing.T) {
			comb, ok := q.(mr.Combiner)
			if !ok {
				t.Fatalf("%s does not implement mr.Combiner", name)
			}
			groups := mapGroups(q, testClicks())
			direct := reduceAll(q, groups)

			combined := map[string][][]byte{}
			for k, vals := range groups {
				// Split each group in two and combine the halves
				// separately, as map-side partial aggregation would.
				mid := len(vals) / 2
				for _, part := range [][][]byte{vals[:mid], vals[mid:]} {
					if len(part) == 0 {
						continue
					}
					comb.Combine([]byte(k), &sliceIter{vals: part}, func(v []byte) {
						combined[k] = append(combined[k], append([]byte(nil), v...))
					})
				}
				if len(combined[k]) >= len(vals) && len(vals) > 1 {
					t.Fatalf("Combine did not shrink group %q: %d → %d values",
						k, len(vals), len(combined[k]))
				}
			}
			viaCombine := reduceAll(q, combined)
			if fmt.Sprint(direct) != fmt.Sprint(viaCombine) {
				t.Fatalf("reduce %v != combine-then-reduce %v", direct, viaCombine)
			}
		})
	}
}

// TestEarlyEmitterEmitsOnce pins the early-answer protocol: TryEmit
// fires exactly once when the count crosses the threshold, and
// Finalize must not repeat an answer already given early.
func TestEarlyEmitterEmitsOnce(t *testing.T) {
	q := queries.NewFrequentUsers(3)
	ee := q.(mr.EarlyEmitter)
	inc := q.(mr.Incremental)
	key := []byte("user0000")

	var emits []string
	out := mr.FuncOutput(func(k, v []byte) {
		emits = append(emits, string(k)+"="+string(v))
	})

	state := inc.Init(nil, key, []byte("1"))
	for i := 0; i < 4; i++ {
		state = ee.TryEmit(key, state, out)
		state = inc.MergeStates(nil, key, state, inc.Init(nil, key, []byte("1")))
	}
	state = ee.TryEmit(key, state, out)
	if len(emits) != 1 || emits[0] != "user0000=3" {
		t.Fatalf("TryEmit sequence emitted %v, want exactly [user0000=3]", emits)
	}
	inc.Finalize(key, state, out)
	if len(emits) != 1 {
		t.Fatalf("Finalize repeated an early answer: %v", emits)
	}
}

// TestRecordTimePurity pins the Watermarker contract: RecordTime must
// be pure — same record, same timestamp, no receiver mutation — since
// the engine calls it from concurrent map segments.
func TestRecordTimePurity(t *testing.T) {
	q := queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
	var wm mr.Watermarker = q
	rec := click(1300000004567, "user0007", "/x")
	want := int64(1300000004567)
	for i := 0; i < 3; i++ {
		if got := wm.RecordTime(rec); got != want {
			t.Fatalf("RecordTime call %d = %d, want %d", i, got, want)
		}
	}
	// AdvanceWatermark is serial and monotonic: a stale timestamp must
	// not lower the watermark RecordTime observations established.
	wm.AdvanceWatermark(want)
	wm.AdvanceWatermark(want - 10_000)
	if got := q.Watermark(); got != want {
		t.Fatalf("watermark regressed to %d after stale advance, want %d", got, want)
	}
}

// TestOutputHelpers pins the test conveniences the suites lean on.
func TestOutputHelpers(t *testing.T) {
	var got [][2]string
	f := mr.FuncOutput(func(k, v []byte) {
		got = append(got, [2]string{string(k), string(v)})
	})
	f.Emit([]byte("k"), []byte("v"))
	if len(got) != 1 || got[0] != [2]string{"k", "v"} {
		t.Fatalf("FuncOutput captured %v", got)
	}
	mr.DiscardOutput.Emit([]byte("k"), []byte("v")) // must not panic
}

// TestStateSizePositive pins the memory-accounting contract: every
// incremental query must declare a positive per-key state footprint.
func TestStateSizePositive(t *testing.T) {
	qs := contractQueries()
	qs["sessionization"] = queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
	qs["trigram"] = queries.NewTrigramCount(2)
	for name, q := range qs {
		if inc, ok := q.(mr.Incremental); ok {
			if s := inc.StateSize(); s <= 0 {
				t.Errorf("%s: StateSize() = %d, want > 0", name, s)
			}
		}
	}
}
