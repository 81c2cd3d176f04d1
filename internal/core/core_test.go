package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/sim"
	"repro/internal/storage"
)

// countQuery is a user-click-counting style query: values are decimal
// increments; the state is an 8-byte big-endian counter. It implements
// Query, Combiner and Incremental.
type countQuery struct {
	threshold int64 // if > 0, acts as frequent-user identification
}

func (q *countQuery) Name() string { return "count" }

func (q *countQuery) Map(record []byte, emit func(k, v []byte)) {
	emit(record, []byte("1"))
}

func sumValues(values kvenc.ValueIter) int64 {
	var total int64
	for {
		v, ok := values.Next()
		if !ok {
			return total
		}
		n, _ := strconv.ParseInt(string(v), 10, 64)
		total += n
	}
}

func (q *countQuery) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	total := sumValues(values)
	if q.threshold > 0 && total < q.threshold {
		return
	}
	out.Emit(key, []byte(strconv.FormatInt(total, 10)))
}

func (q *countQuery) Combine(key []byte, values kvenc.ValueIter, emit func(v []byte)) {
	emit([]byte(strconv.FormatInt(sumValues(values), 10)))
}

func (q *countQuery) Init(dst, key, value []byte) []byte {
	n, _ := strconv.ParseInt(string(value), 10, 64)
	return binary.BigEndian.AppendUint64(dst, uint64(n))
}

func (q *countQuery) MergeStates(dst, key, a, b []byte) []byte {
	if len(a) < 8 { // identity state
		return append(dst[:0], b...)
	}
	n := binary.BigEndian.Uint64(a) + binary.BigEndian.Uint64(b)
	binary.BigEndian.PutUint64(a, n)
	return a
}

func (q *countQuery) Finalize(key, state []byte, out mr.OutputWriter) {
	if len(state) < 8 {
		return
	}
	n := int64(binary.BigEndian.Uint64(state))
	if q.threshold > 0 && n < q.threshold {
		return
	}
	out.Emit(key, []byte(strconv.FormatInt(n, 10)))
}

func (q *countQuery) StateSize() int { return 8 }

// run executes fn in a one-node simulation.
func runSim(t *testing.T, fn func(rt *Runtime)) {
	t.Helper()
	k := sim.NewKernel()
	st := storage.NewStore(k, 0, cost.Default(1))
	k.Spawn("task", func(p *sim.Proc) {
		fn(NopRuntime(p, st, cost.Default(1)))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// zipfKeys generates n keys with skew.
func zipfKeys(seed int64, n, distinct int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 1, uint64(distinct-1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("user%05d", z.Uint64()))
	}
	return out
}

// expectCounts returns the reference answer.
func expectCounts(keys [][]byte) map[string]int64 {
	m := map[string]int64{}
	for _, k := range keys {
		m[string(k)]++
	}
	return m
}

// collectOut gathers outputs into a map and fails on duplicates.
type collectOut struct {
	t *testing.T
	m map[string]int64
}

func newCollect(t *testing.T) *collectOut { return &collectOut{t: t, m: map[string]int64{}} }

func (c *collectOut) Emit(key, value []byte) {
	n, err := strconv.ParseInt(string(value), 10, 64)
	if err != nil {
		c.t.Fatalf("bad output value %q", value)
	}
	c.m[string(key)] += n
}

func checkCounts(t *testing.T, got map[string]int64, want map[string]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %s: %d want %d", k, got[k], w)
		}
	}
}

func TestMRHashAllInMemory(t *testing.T) {
	keys := zipfKeys(1, 5000, 300)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		r := NewMRHashReducer(rt, q, MRHashConfig{
			Prefix: "t", MemBudget: 8 << 20, Page: 4 << 10, ExpectedBytes: 100 << 10,
		})
		for _, k := range keys {
			r.Consume(k, []byte("1"))
		}
		out := newCollect(t)
		r.Finish(out)
		checkCounts(t, out.m, want)
		if r.SpilledPairs() != 0 {
			t.Fatalf("spilled %d pairs with ample memory", r.SpilledPairs())
		}
	})
}

func TestMRHashWithDiskBuckets(t *testing.T) {
	keys := zipfKeys(2, 20000, 2000)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		r := NewMRHashReducer(rt, q, MRHashConfig{
			Prefix: "t", MemBudget: 64 << 10, Page: 4 << 10,
			ExpectedBytes: 20000 * 18, // forces several disk buckets
		})
		for _, k := range keys {
			r.Consume(k, []byte("1"))
		}
		if r.SpilledPairs() == 0 {
			t.Fatal("expected disk buckets in use")
		}
		out := newCollect(t)
		r.Finish(out)
		checkCounts(t, out.m, want)
	})
}

func TestMRHashRecursivePartitioning(t *testing.T) {
	// A wildly wrong hint (expect tiny, get big) forces bucket
	// overflow and recursive partitioning with h4+.
	keys := zipfKeys(3, 30000, 4000)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		r := NewMRHashReducer(rt, q, MRHashConfig{
			Prefix: "t", MemBudget: 16 << 10, Page: 2 << 10,
			ExpectedBytes: 20 << 10, // hint says "almost fits" — it doesn't
		})
		for _, k := range keys {
			r.Consume(k, []byte("1"))
		}
		out := newCollect(t)
		r.Finish(out)
		checkCounts(t, out.m, want)
	})
}

func TestMRHashDemotion(t *testing.T) {
	// Skew pushes the in-memory bucket over budget: D1 must demote to
	// disk without losing or double-counting values.
	keys := make([][]byte, 0, 30000)
	for i := 0; i < 30000; i++ {
		keys = append(keys, []byte("megahot"))
	}
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		r := NewMRHashReducer(rt, q, MRHashConfig{
			Prefix: "t", MemBudget: 32 << 10, Page: 2 << 10,
			ExpectedBytes: 1 << 20,
		})
		for _, k := range keys {
			r.Consume(k, []byte("1"))
		}
		out := newCollect(t)
		r.Finish(out)
		checkCounts(t, out.m, want)
	})
}

func TestINCHashAllInMemory(t *testing.T) {
	keys := zipfKeys(4, 10000, 500)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		out := newCollect(t)
		r := NewINCHashReducer(rt, q, INCHashConfig{
			Prefix: "t", MemBudget: 8 << 20, Page: 4 << 10, ExpectedStateBytes: 32 << 10,
		}, out)
		for _, k := range keys {
			r.Consume(k, q.Init(nil, k, []byte("1")))
		}
		if r.SpilledPairs() != 0 {
			t.Fatalf("spilled %d with ample memory (paper: I/Os completely eliminated when memory ≥ Δ)", r.SpilledPairs())
		}
		if r.InMemoryRecords() != int64(len(keys)) {
			t.Fatalf("in-memory %d of %d", r.InMemoryRecords(), len(keys))
		}
		r.Finish()
		checkCounts(t, out.m, want)
	})
}

func TestINCHashWithSpills(t *testing.T) {
	keys := zipfKeys(5, 40000, 5000)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		out := newCollect(t)
		r := NewINCHashReducer(rt, q, INCHashConfig{
			Prefix: "t", MemBudget: 24 << 10, Page: 2 << 10,
			ExpectedStateBytes: 5000 * 24,
		}, out)
		for _, k := range keys {
			r.Consume(k, q.Init(nil, k, []byte("1")))
		}
		if r.SpilledPairs() == 0 {
			t.Fatal("expected spills with tight memory")
		}
		r.Finish()
		checkCounts(t, out.m, want)
	})
}

func TestINCHashHotKeysCollapseInMemory(t *testing.T) {
	// Keys seen before memory fills keep collapsing in memory: with
	// first-come admission, early hot keys avoid disk entirely.
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		out := newCollect(t)
		r := NewINCHashReducer(rt, q, INCHashConfig{
			Prefix: "t", MemBudget: 8 << 10, Page: 1 << 10,
			ExpectedStateBytes: 1 << 20,
		}, out)
		// "hot" arrives first and then repeats after memory fills.
		r.Consume([]byte("hot"), q.Init(nil, nil, []byte("1")))
		for i := 0; i < 2000; i++ {
			r.Consume([]byte(fmt.Sprintf("cold%06d", i)), q.Init(nil, nil, []byte("1")))
		}
		spilledBefore := r.SpilledPairs()
		for i := 0; i < 1000; i++ {
			r.Consume([]byte("hot"), q.Init(nil, nil, []byte("1")))
		}
		if r.SpilledPairs() != spilledBefore {
			t.Fatal("hot-key tuples spilled despite resident state")
		}
		r.Finish()
		if out.m["hot"] != 1001 {
			t.Fatalf("hot=%d", out.m["hot"])
		}
	})
}

// thresholdQuery wraps countQuery with early output at a threshold.
type thresholdQuery struct {
	countQuery
	emitted map[string]bool
}

func (q *thresholdQuery) TryEmit(key, state []byte, out mr.OutputWriter) []byte {
	if len(state) >= 8 && !q.emitted[string(key)] {
		if n := int64(binary.BigEndian.Uint64(state)); n >= q.threshold {
			out.Emit(key, []byte(strconv.FormatInt(n, 10)))
			q.emitted[string(key)] = true
			// Negative marker state so Finalize does not re-emit:
			// count already answered.
			binary.BigEndian.PutUint64(state, 1<<63)
		}
	}
	return state
}

func (q *thresholdQuery) Finalize(key, state []byte, out mr.OutputWriter) {
	if len(state) < 8 {
		return
	}
	n := binary.BigEndian.Uint64(state)
	if n&(1<<63) != 0 {
		return // already emitted early
	}
	q.countQuery.Finalize(key, state, out)
}

func TestINCHashEarlyOutput(t *testing.T) {
	// Frequent-user identification: a user must be emitted as soon as
	// its in-memory count reaches the threshold, before Finish.
	runSim(t, func(rt *Runtime) {
		q := &thresholdQuery{countQuery: countQuery{threshold: 50}, emitted: map[string]bool{}}
		out := newCollect(t)
		r := NewINCHashReducer(rt, q, INCHashConfig{
			Prefix: "t", MemBudget: 1 << 20, Page: 4 << 10, ExpectedStateBytes: 1 << 10,
		}, out)
		for i := 0; i < 49; i++ {
			r.Consume([]byte("frequent"), q.Init(nil, nil, []byte("1")))
		}
		if len(out.m) != 0 {
			t.Fatal("emitted before threshold")
		}
		r.Consume([]byte("frequent"), q.Init(nil, nil, []byte("1")))
		if out.m["frequent"] != 50 {
			t.Fatalf("early output missing: %v", out.m)
		}
		r.Finish()
		if out.m["frequent"] != 50 {
			t.Fatalf("duplicate emission at finish: %v", out.m)
		}
	})
}

func TestDINCHashCorrectness(t *testing.T) {
	keys := zipfKeys(6, 50000, 5000)
	want := expectCounts(keys)
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		out := newCollect(t)
		r := NewDINCHashReducer(rt, q, DINCHashConfig{
			Prefix: "t", MemBudget: 32 << 10, Page: 2 << 10,
			ExpectedDistinctKeys: 5000, KeyBytes: 9,
		}, out)
		for _, k := range keys {
			r.Consume(k, q.Init(nil, k, []byte("1")))
		}
		r.Finish()
		checkCounts(t, out.m, want)
	})
}

func TestDINCBeatsINCOnSkewedLateHotKeys(t *testing.T) {
	// The defining DINC property (§4.3): when hot keys appear after
	// memory would already be full of cold early keys, INC-hash spills
	// the hot tuples but DINC-hash evicts cold states and keeps the
	// hot keys in memory.
	rng := rand.New(rand.NewSource(7))
	var keys [][]byte
	// Phase 1: a flood of cold keys fills any first-come table.
	for i := 0; i < 4000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("cold%06d", i)))
	}
	// Phase 2: two hot keys dominate, mixed with more cold.
	for i := 0; i < 30000; i++ {
		if rng.Intn(10) < 8 {
			keys = append(keys, []byte(fmt.Sprintf("hot%d", rng.Intn(2))))
		} else {
			keys = append(keys, []byte(fmt.Sprintf("cold%06d", 4000+i)))
		}
	}
	want := expectCounts(keys)

	spills := map[string]int64{}
	for _, which := range []string{"inc", "dinc"} {
		which := which
		runSim(t, func(rt *Runtime) {
			q := &countQuery{}
			out := newCollect(t)
			mem := int64(24 << 10)
			var consume func(k, st []byte)
			var finish func()
			var spilled func() int64
			if which == "inc" {
				r := NewINCHashReducer(rt, q, INCHashConfig{
					Prefix: "t", MemBudget: mem, Page: 2 << 10, ExpectedStateBytes: 40000 * 24,
				}, out)
				consume, finish, spilled = r.Consume, r.Finish, r.SpilledPairs
			} else {
				r := NewDINCHashReducer(rt, q, DINCHashConfig{
					Prefix: "t", MemBudget: mem, Page: 2 << 10,
					ExpectedDistinctKeys: 40000, KeyBytes: 10,
				}, out)
				consume, finish, spilled = r.Consume, r.Finish, r.SpilledPairs
			}
			for _, k := range keys {
				consume(k, q.Init(nil, k, []byte("1")))
			}
			spills[which] = spilled()
			finish()
			checkCounts(t, out.m, want)
		})
	}
	if spills["dinc"] >= spills["inc"] {
		t.Fatalf("DINC spilled %d ≥ INC %d on late-hot-key workload", spills["dinc"], spills["inc"])
	}
}

func TestDINCCoverageEarlyAnswers(t *testing.T) {
	// With φ set, monitored keys with γ ≥ φ answer from memory at
	// Finish (approximate), and the rest still process exactly.
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		out := newCollect(t)
		r := NewDINCHashReducer(rt, q, DINCHashConfig{
			Prefix: "t", MemBudget: 4 << 10, Page: 1 << 10,
			ExpectedDistinctKeys: 2000, KeyBytes: 10,
			CoverageThreshold: 0.5,
		}, out)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 20000; i++ {
			var k []byte
			if rng.Intn(10) < 7 {
				k = []byte("dominant")
			} else {
				k = []byte(fmt.Sprintf("cold%05d", rng.Intn(2000)))
			}
			r.Consume(k, q.Init(nil, k, []byte("1")))
		}
		r.Finish()
		if r.ApproxKeys() == 0 {
			t.Fatal("no approximate answers despite a dominant key")
		}
		if got := out.m["dominant"]; got < 10000 {
			t.Fatalf("dominant count %d: approximate answer below plausible coverage", got)
		}
	})
}

func TestHashMapCollectorRaw(t *testing.T) {
	runSim(t, func(rt *Runtime) {
		q := &struct{ countQuery }{} // embeds without Combiner? it has Combine...
		_ = q
		// Use an explicit non-combining query.
		c := NewHashMapCollector(rt, nonCombining{}, 4, 1<<20, false)
		if c.Combining() {
			t.Fatal("raw query must not combine")
		}
		for i := 0; i < 1000; i++ {
			c.Add([]byte(fmt.Sprintf("key%04d", i%100)), []byte("v"))
		}
		out, mapped, emitted := c.Finish()
		parts := out.Segs
		if mapped != 1000 || emitted != 1000 {
			t.Fatalf("mapped=%d emitted=%d", mapped, emitted)
		}
		total := 0
		seen := map[string]int{}
		for pi, segs := range parts {
			for _, seg := range segs {
				it := kvenc.NewIterator(seg)
				for {
					k, _, ok := it.Next()
					if !ok {
						break
					}
					total++
					if prev, dup := seen[string(k)]; dup && prev != pi {
						t.Fatalf("key %s in two partitions", k)
					}
					seen[string(k)] = pi
				}
				if err := it.Err(); err != nil {
					t.Fatalf("corrupt segment: %v", err)
				}
			}
		}
		if total != 1000 {
			t.Fatalf("total=%d", total)
		}
	})
}

// nonCombining is a minimal Query without Combiner/Incremental.
type nonCombining struct{}

func (nonCombining) Name() string                                            { return "raw" }
func (nonCombining) Map(record []byte, emit func(k, v []byte))               { emit(record, nil) }
func (nonCombining) Reduce(k []byte, v kvenc.ValueIter, out mr.OutputWriter) {}

func TestHashMapCollectorCombining(t *testing.T) {
	runSim(t, func(rt *Runtime) {
		q := &countQuery{}
		c := NewHashMapCollector(rt, q, 4, 1<<20, true)
		if !c.Combining() {
			t.Fatal("incremental query must combine map-side")
		}
		for i := 0; i < 9000; i++ {
			c.Add([]byte(fmt.Sprintf("key%02d", i%30)), []byte("1"))
		}
		out, mapped, emitted := c.Finish()
		parts := out.Segs
		if mapped != 9000 {
			t.Fatalf("mapped=%d", mapped)
		}
		if emitted != 30 {
			t.Fatalf("emitted=%d, want 30 (one state per key)", emitted)
		}
		// Decode states and verify the counts survived combining.
		got := map[string]int64{}
		for _, segs := range parts {
			for _, seg := range segs {
				it := kvenc.NewIterator(seg)
				for {
					k, st, ok := it.Next()
					if !ok {
						break
					}
					got[string(k)] += int64(binary.BigEndian.Uint64(st))
				}
				if err := it.Err(); err != nil {
					t.Fatalf("corrupt segment: %v", err)
				}
			}
		}
		for k, n := range got {
			if n != 300 {
				t.Fatalf("key %s combined to %d, want 300", k, n)
			}
		}
	})
}

func TestHashMapCollectorOverflowSegments(t *testing.T) {
	// When chunk output exceeds the budget the collector must emit
	// multiple segments, never external-sort.
	runSim(t, func(rt *Runtime) {
		c := NewHashMapCollector(rt, nonCombining{}, 2, 4<<10, false)
		for i := 0; i < 3000; i++ {
			c.Add([]byte(fmt.Sprintf("key%06d", i)), []byte("payload-payload"))
		}
		out, _, emitted := c.Finish()
		parts := out.Segs
		if emitted != 3000 {
			t.Fatalf("emitted=%d", emitted)
		}
		segs := 0
		for _, p := range parts {
			segs += len(p)
		}
		if segs < 4 {
			t.Fatalf("expected multiple overflow segments, got %d", segs)
		}
	})
}
