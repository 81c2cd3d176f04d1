package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
)

// pinnedClicks is the fixed map input of the collector pins: 622 click
// records in the synthetic stream's layout over a pool of 300 users,
// skewed so the table modes see repeated keys. The records are built
// here, from a recurrence written out in full, so that the pins hold
// the collector and nothing else: they once came from
// workload.ClickStream and moved when its sampler did.
func pinnedClicks() [][]byte {
	recs := make([][]byte, 622)
	x := uint32(11)
	next := func(n uint32) uint32 {
		x = x*1664525 + 1013904223
		return (x >> 8) % n
	}
	for i := range recs {
		u := next(300)
		recs[i] = fmt.Appendf(nil, "%013d\tu%07d\t/p%06d.html\t200\t%04d\tMozilla/4.0-compatible-padpadpad",
			int64(i)*11_500+int64(next(4001)), u*u/300, next(100), 100+next(9900))
	}
	return recs
}

// collect maps every record through q into a fresh collector.
func collect(q mr.Query, records [][]byte, r int, budget int64, incremental bool) (MapParts, int64, int64) {
	c := NewHashMapCollector(NopRuntime(nil, nil, cost.Default(1)), q, r, budget, incremental)
	for _, rec := range records {
		q.Map(rec, c.Add)
	}
	return c.Finish()
}

// partsDigest hashes every partition's segments with their framing
// (partition, segment count, segment lengths), so a byte moved between
// segments or partitions changes the digest.
func partsDigest(parts [][][]byte) string {
	h := sha256.New()
	for p, segs := range parts {
		fmt.Fprintf(h, "p%d:%d;", p, len(segs))
		for _, s := range segs {
			fmt.Fprintf(h, "%d:", len(s))
			h.Write(s)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHashCollectorSegmentsPinned pins the collector's output bytes in
// each of its four modes, for a chunk that fits the map buffer and for
// one that overflows it several times. The digests were first taken
// before the per-partition buffers were replaced by one staged and
// scattered buffer (flush boundaries and segment bytes did not move)
// and retaken, on unchanged collector code, when the input became the
// literal fixture above.
func TestHashCollectorSegmentsPinned(t *testing.T) {
	sess := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	cases := []struct {
		name        string
		q           func() mr.Query
		incremental bool
		budget      int64
		multi       bool // the chunk's output overflows the budget several times
		adopted     bool // one exact-size backing the file adopts
		emitted     int64
		want        string
	}{
		{"raw/single", sess, false, 1 << 20, false, true, 622, "f9939d46ff26079e8ebc019cef2a8ad75facff824c1dab1ef39579b4841ed647"},
		{"raw/multi", sess, false, 8 << 10, true, false, 622, "7837d7e45c2ecf574b66678cccca093c7985883a7d641bd596714094d2f8bdb2"},
		{"init-only/single", sess, true, 1 << 20, false, true, 622, "01d18ebe891ef4940f45acaa89a7b5a4aa8453e5aa34bc45b590b7e44897c412"},
		{"init-only/multi", sess, true, 8 << 10, true, false, 622, "398edf045004f3a88fcda18588cc4f3fa838ead59cc54e540a4bb53d97c65dfd"},
		{"inc-table/single", queries.NewClickCount, true, 1 << 20, false, false, 197, "4842edc5f48204445933808b78d05be9cfb6262a5508fb5afba5caa007ea6977"},
		{"inc-table/multi", queries.NewClickCount, true, 2 << 10, true, false, 511, "fb97543720596cdbf63732689902b473eeaca963891b23577bb75add8ddc32d0"},
		{"comb-table/single", queries.NewClickCount, false, 1 << 20, false, false, 197, "5c2ff97cf34fec190f0835a3f709b7baf90aa6d93f6edc04ec071429dffa277b"},
		{"comb-table/multi", queries.NewClickCount, false, 2 << 10, true, false, 511, "eab6665b49dba2710dce862768f5fff5e6749e9ce3df6563978048dfe7f29f74"},
	}
	records := pinnedClicks()
	const r = 5
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, mapped, emitted := collect(tc.q(), records, r, tc.budget, tc.incremental)
			if mapped != int64(len(records)) || emitted != tc.emitted {
				t.Fatalf("mapped %d of %d records, emitted %d, want %d", mapped, len(records), emitted, tc.emitted)
			}
			most := 0
			for _, segs := range out.Segs {
				most = max(most, len(segs))
			}
			if !tc.multi && most != 1 || tc.multi && most < 3 {
				t.Fatalf("fullest partition has %d segments", most)
			}
			if got := partsDigest(out.Segs); got != tc.want {
				t.Errorf("segments digest %s, want %s", got, tc.want)
			}
			if !tc.adopted {
				return
			}
			// Single-flush pass-through output is one exact-size
			// allocation, the segments its adjacent ranges in partition
			// order, so the map output file adopts it whole.
			if out.Backing == nil || cap(out.Backing) != len(out.Backing) {
				t.Fatalf("backing len %d cap %d, want one exact-size buffer", len(out.Backing), cap(out.Backing))
			}
			off := 0
			for p, segs := range out.Segs {
				for _, s := range segs {
					if cap(s) != len(s) {
						t.Fatalf("partition %d: segment cap %d != len %d", p, cap(s), len(s))
					}
					if len(s) > 0 && &s[0] != &out.Backing[off] {
						t.Fatalf("partition %d: segment is not at offset %d of the backing", p, off)
					}
					off += len(s)
				}
			}
			if off != len(out.Backing) {
				t.Fatalf("segments cover %d of %d backing bytes", off, len(out.Backing))
			}
		})
	}
}

// TestHashCollectorTinyBudget: a map buffer smaller than one table
// entry (the 64-bucket array alone is 256 B) used to refuse the entry
// even from an empty table, and the retry after the flush discarded the
// refusal — every record vanished without an error. An empty table now
// admits one entry, so each record flushes out as its own segment.
func TestHashCollectorTinyBudget(t *testing.T) {
	users := []string{"u0000001", "u0000002", "u0000001", "u0000003", "u0000002"}
	for _, incremental := range []bool{true, false} {
		q := queries.NewClickCount()
		c := NewHashMapCollector(NopRuntime(nil, nil, cost.Default(1)), q, 2, 200, incremental)
		for _, u := range users {
			c.Add([]byte(u), []byte("1"))
		}
		out, mapped, emitted := c.Finish()
		if mapped != 5 || emitted != 5 || kvCount(out.Segs) != 5 {
			t.Fatalf("incremental=%v: mapped %d, emitted %d, %d pairs in the segments; want 5 each",
				incremental, mapped, emitted, kvCount(out.Segs))
		}

		// The node combiner retries the same way.
		nc := NewNodeCombiner(NopRuntime(nil, nil, cost.Default(1)), q, 2, 200, incremental, false)
		nc.Absorb(out.Segs)
		folded, inPairs, outPairs := nc.Finish()
		if inPairs != 5 || outPairs != 5 || kvCount(folded.Segs) != 5 {
			t.Fatalf("incremental=%v: node combiner absorbed %d pairs and emitted %d, %d in the segments; want 5",
				incremental, inPairs, outPairs, kvCount(folded.Segs))
		}
	}
}

func kvCount(parts [][][]byte) (n int) {
	for _, segs := range parts {
		for _, s := range segs {
			n += kvenc.Count(s)
		}
	}
	return n
}

// TestHashCollectorAddAllocs pins the pass-through Add at zero heap
// allocations per record between flushes: init() writes into the
// collector's scratch and the pair is staged in the pooled buffer.
func TestHashCollectorAddAllocs(t *testing.T) {
	q := queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
	c := NewHashMapCollector(NopRuntime(nil, nil, cost.Default(1)), q, 40, 1<<20, true)
	c.stagePart, c.stageEnd = make([]int32, 0, 1024), make([]int, 0, 1024) // grown once, as a long task would have
	rec := pinnedClicks()[0]
	key := rec[14:22]
	if n := testing.AllocsPerRun(200, func() { c.Add(key, rec) }); n != 0 {
		t.Errorf("Add allocates %.0f objects per record", n)
	}
	if _, mapped, emitted := c.Finish(); mapped != 201 || emitted != 201 {
		t.Errorf("mapped %d, emitted %d, want 201 each", mapped, emitted)
	}
}

// TestINCHashConsumeAllocs pins the reducer's in-memory hit path —
// cb() into the reducer's scratch, early emission, the state copied
// back into its slot — at zero heap allocations per tuple (the arena's
// occasional regrowth amortises away).
func TestINCHashConsumeAllocs(t *testing.T) {
	q := queries.NewSessionization(5*time.Minute, 512, 5*time.Second)
	r := NewINCHashReducer(NopRuntime(nil, nil, cost.Default(1)), q,
		INCHashConfig{Prefix: "r0", MemBudget: 1 << 20, Page: 1 << 10}, mr.DiscardOutput)
	key := []byte("u0000001")
	ts := int64(1_300_000_000_000)
	var rec, st []byte
	consume := func() {
		ts += 20_000 // the watermark runs ahead, so old clicks stream out and the state stays bounded
		q.AdvanceWatermark(ts)
		rec = append(strconv.AppendInt(rec[:0], ts, 10), "\tu0000001\t/p.html\t200\t1234\tpad"...)
		st = q.Init(st[:0], key, rec)
		r.Consume(key, st)
	}
	for i := 0; i < 64; i++ {
		consume() // inserts the key, grows the scratch and the slot
	}
	if n := testing.AllocsPerRun(500, consume); n != 0 {
		t.Errorf("Consume allocates %.0f objects per tuple on the hit path", n)
	}
	if r.InMemoryRecords() != 64+501 || r.SpilledPairs() != 0 {
		t.Errorf("%d tuples combined in memory, %d spilled", r.InMemoryRecords(), r.SpilledPairs())
	}
}
