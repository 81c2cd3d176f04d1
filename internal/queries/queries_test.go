package queries

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvenc"
	"repro/internal/mr"
)

// click builds a synthetic click record matching the workload layout.
func click(tsMillis int64, user, url string) []byte {
	return []byte(fmt.Sprintf("%013d\t%s\t%s\t200\t0123\tpad", tsMillis, user, url))
}

func TestClickFieldExtraction(t *testing.T) {
	rec := click(12345, "u0000042", "/p000007.html")
	if clickTs(rec) != 12345 {
		t.Fatalf("ts=%d", clickTs(rec))
	}
	if string(clickUser(rec)) != "u0000042" {
		t.Fatalf("user=%q", clickUser(rec))
	}
	if string(clickURL(rec)) != "/p000007.html" {
		t.Fatalf("url=%q", clickURL(rec))
	}
}

type sink struct{ got [][2]string }

func (s *sink) Emit(k, v []byte) { s.got = append(s.got, [2]string{string(k), string(v)}) }

func values(vs ...string) kvenc.ValueIter {
	var enc []byte
	for _, v := range vs {
		enc = kvenc.AppendPair(enc, []byte("k"), []byte(v))
	}
	it := kvenc.NewIterator(enc)
	if err := it.Err(); err != nil {
		panic(err)
	}
	return valueOnly{it}
}

type valueOnly struct{ it *kvenc.Iterator }

func (v valueOnly) Next() ([]byte, bool) {
	_, val, ok := v.it.Next()
	if !ok {
		if err := v.it.Err(); err != nil {
			panic(err)
		}
	}
	return val, ok
}

func TestClickCountReduceAndCombine(t *testing.T) {
	q := NewClickCount().(*counting)
	s := &sink{}
	q.Reduce([]byte("u1"), values("1", "3", "2"), s)
	if len(s.got) != 1 || s.got[0][1] != "6" {
		t.Fatalf("%v", s.got)
	}
	var combined []string
	q.Combine([]byte("u1"), values("1", "1", "1"), func(v []byte) { combined = append(combined, string(v)) })
	if len(combined) != 1 || combined[0] != "3" {
		t.Fatalf("%v", combined)
	}
}

func TestCountingIncrementalMatchesReduce(t *testing.T) {
	q := NewClickCount().(*counting)
	st := q.Init(nil, []byte("u"), []byte("1"))
	for i := 0; i < 9; i++ {
		st = q.MergeStates(nil, []byte("u"), st, q.Init(nil, []byte("u"), []byte("1")))
	}
	s := &sink{}
	q.Finalize([]byte("u"), st, s)
	if len(s.got) != 1 || s.got[0][1] != "10" {
		t.Fatalf("%v", s.got)
	}
}

func TestFrequentUsersEarlyEmitOnce(t *testing.T) {
	q := NewFrequentUsers(5).(*earlyCounting)
	st := q.Init(nil, []byte("u"), []byte("1"))
	s := &sink{}
	for i := 0; i < 9; i++ {
		st = q.MergeStates(nil, []byte("u"), st, q.Init(nil, []byte("u"), []byte("1")))
		st = q.TryEmit([]byte("u"), st, s)
	}
	if len(s.got) != 1 || s.got[0][1] != "5" {
		t.Fatalf("early emit wrong: %v", s.got)
	}
	q.Finalize([]byte("u"), st, s)
	if len(s.got) != 1 {
		t.Fatalf("duplicate at finalize: %v", s.got)
	}
}

func TestFrequentUsersBelowThresholdSilent(t *testing.T) {
	q := NewFrequentUsers(50).(*earlyCounting)
	s := &sink{}
	st := q.Init(nil, []byte("u"), []byte("1"))
	st = q.TryEmit([]byte("u"), st, s)
	q.Finalize([]byte("u"), st, s)
	if len(s.got) != 0 {
		t.Fatalf("emitted below threshold: %v", s.got)
	}
}

func TestTrigramMap(t *testing.T) {
	q := NewTrigramCount(2)
	var keys []string
	q.Map([]byte("w1 w2 w3 w4"), func(k, v []byte) {
		keys = append(keys, string(k))
		if string(v) != "1" {
			t.Fatalf("value %q", v)
		}
	})
	want := []string{"w1_w2_w3", "w2_w3_w4"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("trigrams %v", keys)
	}
}

func TestTrigramShortLine(t *testing.T) {
	q := NewTrigramCount(2)
	q.Map([]byte("w1 w2"), func(k, v []byte) {
		t.Fatalf("emitted %q from a 2-word line", k)
	})
}

func TestPageFrequencyKeysByURL(t *testing.T) {
	q := NewPageFrequency()
	var key string
	q.Map(click(1, "u0000001", "/page.html"), func(k, v []byte) { key = string(k) })
	if key != "/page.html" {
		t.Fatalf("key %q", key)
	}
}

// --- sessionization ---

const minute = int64(60_000)

func newSess() *Sessionization {
	return NewSessionization(5*time.Minute, 512, 5*time.Second)
}

func sessionsOf(got [][2]string) map[string][]string {
	m := map[string][]string{}
	for _, kv := range got {
		// value: "s0001\t<record>"
		parts := strings.SplitN(kv[1], "\t", 2)
		m[kv[0]] = append(m[kv[0]], parts[0]+":"+strconv.FormatInt(clickTs([]byte(parts[1])), 10))
	}
	return m
}

func TestSessionizationReduceSplitsSessions(t *testing.T) {
	q := newSess()
	s := &sink{}
	recs := []string{
		string(click(1*minute, "u0000001", "/a")),
		string(click(2*minute, "u0000001", "/b")),
		string(click(20*minute, "u0000001", "/c")), // 18-minute gap ⇒ new session
		string(click(21*minute, "u0000001", "/d")),
	}
	q.Reduce([]byte("u0000001"), values(recs...), s)
	got := sessionsOf(s.got)["u0000001"]
	want := []string{"s0000:60000", "s0000:120000", "s0001:1200000", "s0001:1260000"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sessions %v", got)
	}
}

func TestSessionizationReduceSortsDisorderedInput(t *testing.T) {
	q := newSess()
	s := &sink{}
	recs := []string{
		string(click(2*minute, "u0000001", "/b")),
		string(click(1*minute, "u0000001", "/a")), // out of order
	}
	q.Reduce([]byte("u0000001"), values(recs...), s)
	got := sessionsOf(s.got)["u0000001"]
	if fmt.Sprint(got) != "[s0000:60000 s0000:120000]" {
		t.Fatalf("%v", got)
	}
}

// runIncremental pushes clicks through the incremental path in order,
// advancing the watermark per record as the engine would.
func runIncremental(q *Sessionization, s *sink, clicks [][]byte) []byte {
	var st []byte
	for _, rec := range clicks {
		var key []byte
		q.AdvanceWatermark(q.RecordTime(rec))
		q.Map(rec, func(k, v []byte) { key = append([]byte(nil), k...) })
		init := q.Init(nil, key, rec)
		if st == nil {
			st = init
		} else {
			st = q.MergeStates(nil, key, st, init)
		}
		st = q.TryEmit(key, st, s)
	}
	return st
}

func TestSessionizationIncrementalStreamsClosedSessions(t *testing.T) {
	q := newSess()
	s := &sink{}
	st := runIncremental(q, s, [][]byte{
		click(1*minute, "u0000001", "/a"),
		click(2*minute, "u0000001", "/b"),
		click(30*minute, "u0000001", "/c"), // watermark jumps: first session closed
	})
	if len(s.got) != 2 {
		t.Fatalf("expected 2 early clicks, got %v", s.got)
	}
	q.Finalize([]byte("u0000001"), st, s)
	got := sessionsOf(s.got)["u0000001"]
	want := []string{"s0000:60000", "s0000:120000", "s0001:1800000"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sessions %v", got)
	}
}

func TestSessionizationIncrementalMatchesReduce(t *testing.T) {
	// Same clicks through both paths must yield the same session
	// assignment.
	mk := func() [][]byte {
		var cs [][]byte
		ts := int64(0)
		for i := 0; i < 40; i++ {
			if i%7 == 6 {
				ts += 11 * minute // close the session
			} else {
				ts += minute / 2
			}
			cs = append(cs, click(ts, "u0000001", fmt.Sprintf("/p%02d", i)))
		}
		return cs
	}
	qa := newSess()
	sa := &sink{}
	var vals []string
	for _, c := range mk() {
		vals = append(vals, string(c))
	}
	qa.Reduce([]byte("u0000001"), values(vals...), sa)

	qb := newSess()
	sb := &sink{}
	st := runIncremental(qb, sb, mk())
	qb.Finalize([]byte("u0000001"), st, sb)

	a, b := sessionsOf(sa.got), sessionsOf(sb.got)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("paths disagree:\nreduce: %v\ninc:    %v", a, b)
	}
}

func TestSessionizationBufferOverflowForcesEmission(t *testing.T) {
	q := NewSessionization(5*time.Minute, 256, 5*time.Second) // tiny buffer
	s := &sink{}
	var clicks [][]byte
	for i := 0; i < 20; i++ {
		clicks = append(clicks, click(int64(i)*1000+1000, "u0000001", "/x"))
	}
	st := runIncremental(q, s, clicks)
	if len(st) > 256 {
		t.Fatalf("state grew to %d > 256", len(st))
	}
	if len(s.got) == 0 {
		t.Fatal("overflow did not force emissions")
	}
	q.Finalize([]byte("u0000001"), st, s)
	if len(s.got) != 20 {
		t.Fatalf("clicks lost: %d of 20", len(s.got))
	}
}

func TestSessionizationMergeDisorderedStates(t *testing.T) {
	q := newSess()
	a := q.Init(nil, []byte("u"), click(3*minute, "u0000001", "/c"))
	b := q.Init(nil, []byte("u"), click(1*minute, "u0000001", "/a"))
	m := q.MergeStates(nil, []byte("u"), a, b)
	var ts []int64
	eachClick(m, func(_ int, t int64, _ []byte) bool { ts = append(ts, t); return true })
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Fatalf("merged clicks unsorted: %v", ts)
	}
}

func TestSessionizationEvictorAndScavenger(t *testing.T) {
	q := newSess()
	s := &sink{}
	// Old click, then advance watermark far past it.
	st := q.Init(nil, []byte("u0000001"), click(1*minute, "u0000001", "/a"))
	q.AdvanceWatermark(q.RecordTime(click(60*minute, "u0000002", "/b")))
	if !q.Scavenge([]byte("u0000001"), st) {
		t.Fatal("expired state not scavengeable")
	}
	if !q.OnEvict([]byte("u0000001"), st, s) {
		t.Fatal("expired state not absorbed by evictor")
	}
	if len(s.got) != 1 {
		t.Fatalf("eviction output %v", s.got)
	}
	// A fresh state must be spilled, not absorbed.
	fresh := q.Init(nil, []byte("u0000003"), click(60*minute, "u0000003", "/c"))
	if q.OnEvict([]byte("u0000003"), fresh, s) {
		t.Fatal("fresh state wrongly absorbed")
	}
	if q.Scavenge([]byte("u0000003"), fresh) {
		t.Fatal("fresh state wrongly scavengeable")
	}
}

func TestSessionizationStateSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for tiny state")
		}
	}()
	NewSessionization(5*time.Minute, 16, time.Second)
}

var _ mr.OutputWriter = &sink{}

// TestSessionizationMergeOrderInvariance: merging a set of single-click
// states in any order must preserve the click multiset and keep the
// buffer timestamp-ordered (MergeStates is the cb() of §4.2 and must
// tolerate arbitrary shuffle arrival orders).
func TestSessionizationMergeOrderInvariance(t *testing.T) {
	q := newSess()
	base := [][]byte{
		click(5*minute, "u0000001", "/a"),
		click(1*minute, "u0000001", "/b"),
		click(9*minute, "u0000001", "/c"),
		click(3*minute, "u0000001", "/d"),
		click(7*minute, "u0000001", "/e"),
	}
	perms := [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}, {1, 3, 0, 4, 2}}
	var want string
	for pi, perm := range perms {
		var st []byte
		for _, i := range perm {
			init := q.Init(nil, []byte("u0000001"), base[i])
			if st == nil {
				st = init
			} else {
				st = q.MergeStates(nil, []byte("u0000001"), st, init)
			}
		}
		var got []int64
		eachClick(st, func(_ int, ts int64, _ []byte) bool { got = append(got, ts); return true })
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("perm %d: clicks unsorted: %v", pi, got)
		}
		key := fmt.Sprint(got)
		if pi == 0 {
			want = key
		} else if key != want {
			t.Fatalf("perm %d: %s vs %s", pi, key, want)
		}
	}
}

// TestCountingMergeAssociativity: the count-state cb() must be
// associative and commutative (the platforms merge partial states in
// data-dependent orders).
func TestCountingMergeAssociativity(t *testing.T) {
	q := NewClickCount().(*counting)
	mk := func(n string) []byte { return q.Init(nil, []byte("k"), []byte(n)) }
	// (a ⊕ b) ⊕ c
	ab := q.MergeStates(nil, []byte("k"), mk("3"), mk("4"))
	abc := q.MergeStates(nil, []byte("k"), ab, mk("5"))
	// a ⊕ (b ⊕ c)
	bc := q.MergeStates(nil, []byte("k"), mk("4"), mk("5"))
	abc2 := q.MergeStates(nil, []byte("k"), mk("3"), bc)
	s1, s2 := &sink{}, &sink{}
	q.Finalize([]byte("k"), abc, s1)
	q.Finalize([]byte("k"), abc2, s2)
	if s1.got[0][1] != "12" || s2.got[0][1] != "12" {
		t.Fatalf("associativity broken: %v %v", s1.got, s2.got)
	}
}

// TestCountingIdentityState: platforms may park an empty (identity)
// state when memory is exhausted; merging into it must recover the
// other operand exactly.
func TestCountingIdentityState(t *testing.T) {
	q := NewClickCount().(*counting)
	st := q.MergeStates(nil, []byte("k"), []byte{}, q.Init(nil, []byte("k"), []byte("7")))
	s := &sink{}
	q.Finalize([]byte("k"), st, s)
	if len(s.got) != 1 || s.got[0][1] != "7" {
		t.Fatalf("%v", s.got)
	}
}

// TestSessionizationIdentityState mirrors the same platform contract.
func TestSessionizationIdentityState(t *testing.T) {
	q := newSess()
	st := q.MergeStates(nil, []byte("u0000001"), []byte{},
		q.Init(nil, []byte("u0000001"), click(minute, "u0000001", "/a")))
	s := &sink{}
	q.Finalize([]byte("u0000001"), st, s)
	if len(s.got) != 1 {
		t.Fatalf("%v", s.got)
	}
}
