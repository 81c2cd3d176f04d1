package bytestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hashfam"
	"repro/internal/kvenc"
)

func newTestTable(budget int64) *Table {
	return NewTable(hashfam.NewFamily(1).Fn(0), budget)
}

func TestUpsertStateRoundTrip(t *testing.T) {
	tb := newTestTable(1 << 20)
	st, _, found, ok := tb.UpsertState([]byte("user1"), 8, 8)
	if !ok || found {
		t.Fatalf("first upsert: found=%v ok=%v", found, ok)
	}
	copy(st, "AAAAAAAA")
	st2, _, found, ok := tb.UpsertState([]byte("user1"), 8, 8)
	if !ok || !found {
		t.Fatalf("second upsert: found=%v ok=%v", found, ok)
	}
	if string(st2) != "AAAAAAAA" {
		t.Fatalf("state lost: %q", st2)
	}
	if tb.Len() != 1 {
		t.Fatalf("len=%d", tb.Len())
	}
}

func TestStateInPlaceUpdate(t *testing.T) {
	tb := newTestTable(1 << 20)
	st, slot, _, _ := tb.UpsertState([]byte("k"), 4, 16)
	copy(st, "abcd")
	if !tb.SetState(slot, []byte("abcdefgh")) {
		t.Fatal("grow within capacity refused")
	}
	if got := tb.GetState([]byte("k")); string(got) != "abcdefgh" {
		t.Fatalf("got %q", got)
	}
}

func TestStateReallocOnGrowth(t *testing.T) {
	tb := newTestTable(1 << 20)
	_, slot, _, _ := tb.UpsertState([]byte("k"), 4, 4)
	big := bytes.Repeat([]byte("x"), 100)
	if !tb.SetState(slot, big) {
		t.Fatal("grow beyond capacity refused despite budget")
	}
	if got := tb.GetState([]byte("k")); !bytes.Equal(got, big) {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestBudgetRefusesInsert(t *testing.T) {
	tb := newTestTable(2048)
	inserted := 0
	for i := 0; i < 1000; i++ {
		_, _, _, ok := tb.UpsertState([]byte(fmt.Sprintf("key-%04d", i)), 32, 32)
		if !ok {
			break
		}
		inserted++
	}
	if inserted == 0 || inserted == 1000 {
		t.Fatalf("budget did not bite sensibly: inserted=%d", inserted)
	}
	if tb.SizeBytes() > tb.Budget() {
		t.Fatalf("size %d exceeds budget %d", tb.SizeBytes(), tb.Budget())
	}
	// Existing keys must still be readable and updatable.
	if tb.GetState([]byte("key-0000")) == nil {
		t.Fatal("existing key lost after budget refusal")
	}
}

// TestTableTinyBudgetAdmitsOne: a budget below the table's own fixed
// footprint (the 64-bucket array is 256 B) must not refuse the first
// entry — an owner that flushes and retries would loop or drop the
// record — but does refuse everything after it.
func TestTableTinyBudgetAdmitsOne(t *testing.T) {
	tb := newTestTable(100)
	st, _, found, ok := tb.UpsertState([]byte("first"), 8, 8)
	if !ok || found || len(st) != 8 {
		t.Fatalf("empty table refused its first state entry: len %d found %v ok %v", len(st), found, ok)
	}
	if _, _, _, ok := tb.UpsertState([]byte("second"), 8, 8); ok {
		t.Fatal("over-budget table admitted a second entry")
	}
	if _, _, found, ok := tb.UpsertState([]byte("first"), 8, 8); !found || !ok {
		t.Fatal("resident key no longer found")
	}

	tv := newTestTable(100)
	if !tv.AppendValue([]byte("first"), []byte("v1")) {
		t.Fatal("empty table refused its first value entry")
	}
	if tv.AppendValue([]byte("first"), []byte("v2")) || tv.AppendValue([]byte("second"), []byte("v")) {
		t.Fatal("over-budget table admitted more values")
	}
	var got []string
	tv.valuesOf([]byte("first"), func(v []byte) { got = append(got, string(v)) })
	if len(got) != 1 || got[0] != "v1" {
		t.Fatalf("values %q", got)
	}
}

func TestTableAgainstMapModel(t *testing.T) {
	// Property test: Table behaves like map[string][]byte under a
	// random workload of upserts and state updates.
	rng := rand.New(rand.NewSource(42))
	tb := newTestTable(16 << 20)
	model := map[string][]byte{}
	for step := 0; step < 20000; step++ {
		key := []byte(fmt.Sprintf("k%03d", rng.Intn(500)))
		switch rng.Intn(3) {
		case 0: // upsert with fresh state
			st, _, found, ok := tb.UpsertState(key, 8, 8)
			if !ok {
				t.Fatalf("budget exhausted unexpectedly at step %d", step)
			}
			if found != (model[string(key)] != nil) {
				t.Fatalf("step %d: found=%v, model has=%v", step, found, model[string(key)] != nil)
			}
			if !found {
				val := []byte(fmt.Sprintf("%08d", rng.Intn(1e8)))
				copy(st, val)
				model[string(key)] = val
			}
		case 1: // read
			got := tb.GetState(key)
			want := model[string(key)]
			if (got == nil) != (want == nil) || (got != nil && !bytes.Equal(got, want)) {
				t.Fatalf("step %d: state %q vs model %q", step, got, want)
			}
		case 2: // overwrite if present
			if model[string(key)] != nil {
				val := []byte(fmt.Sprintf("%08d", rng.Intn(1e8)))
				_, slot, _, _ := tb.UpsertState(key, 0, 0)
				if !tb.SetState(slot, val) {
					t.Fatalf("SetState refused at step %d", step)
				}
				model[string(key)] = val
			}
		}
	}
	if tb.Len() != len(model) {
		t.Fatalf("len %d vs model %d", tb.Len(), len(model))
	}
}

func TestAppendValueOrder(t *testing.T) {
	tb := newTestTable(1 << 20)
	for i := 0; i < 5; i++ {
		if !tb.AppendValue([]byte("k"), []byte(fmt.Sprintf("v%d", i))) {
			t.Fatal("append refused")
		}
	}
	var got []string
	tb.valuesOf([]byte("k"), func(v []byte) { got = append(got, string(v)) })
	want := []string{"v0", "v1", "v2", "v3", "v4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values out of order: %v", got)
		}
	}
}

func TestValuesAbsentKey(t *testing.T) {
	tb := newTestTable(1 << 20)
	if tb.valuesOf([]byte("nope"), func([]byte) {}) {
		t.Fatal("absent key reported present")
	}
}

func TestRangeInsertionOrder(t *testing.T) {
	tb := newTestTable(1 << 20)
	var want []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%02d", (i*37)%100)
		st, _, found, ok := tb.UpsertState([]byte(k), 1, 1)
		if !ok {
			t.Fatal("budget")
		}
		if !found {
			st[0] = byte(i)
			want = append(want, k)
		}
	}
	var got []string
	tb.Range(func(key, state []byte, _ Slot) bool {
		got = append(got, string(key))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("range length %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order differs at %d: %s vs %s", i, got[i], want[i])
		}
	}
}

func TestRehashPreservesEntries(t *testing.T) {
	tb := newTestTable(64 << 20) // big budget to force many rehashes
	const n = 50000
	for i := 0; i < n; i++ {
		st, _, _, ok := tb.UpsertState([]byte(fmt.Sprintf("key-%06d", i)), 8, 8)
		if !ok {
			t.Fatalf("budget at %d", i)
		}
		copy(st, fmt.Sprintf("%08d", i))
	}
	for i := 0; i < n; i += 997 {
		got := tb.GetState([]byte(fmt.Sprintf("key-%06d", i)))
		if string(got) != fmt.Sprintf("%08d", i) {
			t.Fatalf("key %d: got %q", i, got)
		}
	}
}

func TestKVBufferRoundTrip(t *testing.T) {
	b := NewKVBuffer(1 << 20)
	type pair struct{ k, v string }
	var want []pair
	for i := 0; i < 1000; i++ {
		k, v := fmt.Sprintf("key%d", i), fmt.Sprintf("value-%d", i*i)
		if !b.Append([]byte(k), []byte(v)) {
			t.Fatal("append refused")
		}
		want = append(want, pair{k, v})
	}
	if b.Len() != 1000 {
		t.Fatalf("len=%d", b.Len())
	}
	i := 0
	it := kvenc.NewIterator(b.Bytes())
	for k, v, ok := it.Next(); ok; k, v, ok = it.Next() {
		if string(k) != want[i].k || string(v) != want[i].v {
			t.Fatalf("pair %d mismatch: %s=%s", i, k, v)
		}
		i++
	}
	if i != 1000 || it.Err() != nil {
		t.Fatalf("iterated %d", i)
	}
}

func TestKVBufferBudget(t *testing.T) {
	b := NewKVBuffer(64)
	if !b.Append(bytes.Repeat([]byte("x"), 100), nil) {
		t.Fatal("an empty buffer must accept one oversized pair")
	}
	if b.Append([]byte("k"), []byte("v")) {
		t.Fatal("append should refuse beyond budget")
	}
	b.Reset()
	if b.Len() != 0 || b.SizeBytes() != 0 {
		t.Fatal("reset did not clear")
	}
	if !b.Append([]byte("k"), []byte("v")) {
		t.Fatal("append after reset refused")
	}
}

func TestPairBytesMatchesEncoding(t *testing.T) {
	err := quick.Check(func(k, v []byte) bool {
		if len(k) > 1000 || len(v) > 1000 {
			return true
		}
		b := NewKVBuffer(1 << 20)
		b.Append(k, v)
		return b.SizeBytes() == PairBytes(len(k), len(v))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableUpsertHit(b *testing.B) {
	tb := newTestTable(64 << 20)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user-%06d", i))
		tb.UpsertState(keys[i], 8, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.UpsertState(keys[i%1000], 8, 8)
	}
}

func BenchmarkKVBufferAppend(b *testing.B) {
	key := []byte("user-123456")
	val := bytes.Repeat([]byte("v"), 88)
	b.SetBytes(PairBytes(len(key), len(val)))
	buf := NewKVBuffer(1 << 30)
	for i := 0; i < b.N; i++ {
		if buf.SizeBytes() > 1<<28 {
			buf.Reset()
		}
		buf.Append(key, val)
	}
}

// Lookups only the tests make: the platforms reach a table through
// UpsertState, SetState, AppendValue and Range.

func (t *Table) Budget() int64 { return t.budget }

// GetState returns the state for key, or nil if absent.
func (t *Table) GetState(key []byte) []byte {
	fixedOff, _, ok := t.find(key)
	if !ok {
		return nil
	}
	return t.stateOf(fixedOff)
}

// valuesOf calls fn for each value of key in insertion order and
// reports whether the key was present.
func (t *Table) valuesOf(key []byte, fn func(val []byte)) bool {
	slot, exists := t.Find(key)
	if exists {
		t.Values(slot, fn)
	}
	return exists
}

func (b *KVBuffer) Budget() int64 { return b.budget }
