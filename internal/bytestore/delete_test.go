package bytestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// liveBytes is what the table's arena holds for its live entries: the
// reserved byte, each entry's key and fixed fields, its state slot and
// its value nodes.
func (t *Table) liveBytes() int64 {
	n := int64(1)
	t.Range(func(key, _ []byte, slot Slot) bool {
		fixedOff := int32(slot)
		n += int64(uvarintLen(uint64(len(key)))+len(key)+entryFixed) + int64(t.field(fixedOff, 2))
		for ref := t.field(fixedOff, 3); ref != 0; ref = int32(binary.LittleEndian.Uint32(t.a.buf[ref-1:])) {
			vlen, vn := binary.Uvarint(t.a.buf[ref+3:])
			n += int64(4 + vn + int(vlen))
		}
		return true
	})
	return n
}

// FuzzTableOps runs inserts, UpsertState hits, SetStates that grow a
// state past its slot, value appends and Deletes against a map, holding
// each op's slot across the others and renumbering it as compaction
// reports. After every op each key must be found with its state or
// values, Range must follow insertion order, and the dead bytes must be
// exactly what no live entry holds. Keys come from a small space, so
// probe runs collide, wrap past the bucket array's end and are cut by
// deletes; a table past 47 keys rehashes.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 3, 1, 2, 2, 3, 2, 0, 1})
	seq := make([]byte, 0, 600)
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i%5), byte(i*37))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := newTestTable(0)
		states := map[string][]byte{}
		values := map[string][]string{}
		slots := map[string]Slot{}
		owner := map[Slot]string{}
		var order, got []string
		tb.OnMove(func(from, to Slot) {
			k, ok := owner[from]
			if !ok {
				t.Fatalf("moved an unknown slot %d", from)
			}
			delete(owner, from)
			slots[k] = to
		})
		for i := 0; i+1 < len(ops); i += 2 {
			clear(owner)
			for k, s := range slots {
				owner[s] = k
			}
			op, k := ops[i]%5, int(ops[i+1])%96
			key := fmt.Sprintf("key-%d", k)
			_, isState := states[key]
			_, isList := values[key]
			switch {
			case op <= 1 && !isList: // upsert: insert or hit
				st, slot, found, ok := tb.UpsertState([]byte(key), 2, 3)
				if !ok || found != isState {
					t.Fatalf("op %d: upsert %s found=%v ok=%v, model has it: %v", i, key, found, ok, isState)
				}
				if !found {
					copy(st, key[len(key)-1:])
					states[key], slots[key] = append([]byte(nil), st...), slot
					order = append(order, key)
				} else if slot != slots[key] || !bytes.Equal(st, states[key]) {
					t.Fatalf("op %d: %s at slot %d with %q, model %d with %q", i, key, slot, st, slots[key], states[key])
				}
			case op == 2 && isState: // grow the state past its slot
				st := append(append([]byte(nil), states[key]...), byte(i))
				if !tb.SetState(slots[key], st) {
					t.Fatalf("op %d: uncapped table refused a state", i)
				}
				states[key] = st
			case op == 3 && !isState: // append a value
				v := fmt.Sprintf("v%d", i)
				if !tb.AppendValue([]byte(key), []byte(v)) {
					t.Fatalf("op %d: uncapped table refused a value", i)
				}
				if !isList {
					s, _ := tb.Find([]byte(key))
					slots[key] = s
					order = append(order, key)
				}
				values[key] = append(values[key], v)
			case op == 4 && (isState || isList):
				k, st := tb.Delete(slots[key])
				if string(k) != key || isState && !bytes.Equal(st, states[key]) || isList && len(st) != 0 {
					t.Fatalf("op %d: deleting %s returned %q=%q", i, key, k, st)
				}
				delete(states, key)
				delete(values, key)
				delete(slots, key)
				for j, o := range order {
					if o == key {
						order = append(order[:j], order[j+1:]...)
						break
					}
				}
			}
			if tb.Len() != len(order) {
				t.Fatalf("op %d: %d keys, model %d", i, tb.Len(), len(order))
			}
			for key, want := range states {
				if s, ok := tb.Find([]byte(key)); !ok || s != slots[key] || !bytes.Equal(tb.State(s), want) {
					t.Fatalf("op %d: %s found=%v at %d, model %d", i, key, ok, s, slots[key])
				}
			}
			for key, want := range values {
				got = got[:0]
				tb.Values(slots[key], func(v []byte) { got = append(got, string(v)) })
				if !slices.Equal(got, want) {
					t.Fatalf("op %d: %s values %v, model %v", i, key, got, want)
				}
			}
			got = got[:0]
			tb.Range(func(key, _ []byte, _ Slot) bool {
				got = append(got, string(key))
				return true
			})
			if !slices.Equal(got, order) {
				t.Fatalf("op %d: range %v, insertion order %v", i, got, order)
			}
			if live := tb.liveBytes(); tb.a.size()-tb.dead != live {
				t.Fatalf("op %d: arena %d with %d dead, live entries hold %d", i, tb.a.size(), tb.dead, live)
			}
		}
	})
}

// TestDeleteShiftsBackAcrossTheEnd builds a probe run that wraps past
// the bucket array's last bucket and deletes its head: every key behind
// it must move back one bucket, across the end, and stay found.
func TestDeleteShiftsBackAcrossTheEnd(t *testing.T) {
	tb := newTestTable(0)
	home := func(k string) int { return int(tb.h.Sum64([]byte(k))) & tb.mask }
	// Keys homed at 62, 62, 63 and 0 fill buckets 62, 63, 0 and 1.
	var run []string
	for _, want := range []int{62, 62, 63, 0} {
		for i := 0; ; i++ {
			k := fmt.Sprintf("k%d", i)
			if home(k) == want && !slices.Contains(run, k) {
				run = append(run, k)
				break
			}
		}
	}
	var slots []Slot
	for _, k := range run {
		_, s, _, _ := tb.UpsertState([]byte(k), 1, 1)
		slots = append(slots, s)
	}
	tb.Delete(slots[0])
	for i, k := range run[1:] {
		_, b, found := tb.find([]byte(k))
		if want := (62 + i) & tb.mask; !found || b != want {
			t.Fatalf("%s (home %d): found=%v in bucket %d, want %d", k, home(k), found, b, want)
		}
	}
	if tb.buckets[1] != 0 {
		t.Fatal("the run's last bucket was not emptied")
	}
}

// TestCompactionKeepsOrderAndViews deletes all but every tenth key:
// once dead bytes pass live ones the table compacts into a fresh arena
// in insertion order, reports every kept entry's new slot, sizes its
// bucket array to the kept keys, and leaves the views it lent intact.
func TestCompactionKeepsOrderAndViews(t *testing.T) {
	tb := newTestTable(0)
	slots := map[string]Slot{}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%04d", i)
		st, s, _, _ := tb.UpsertState([]byte(k), 4, 4)
		copy(st, k[4:])
		slots[k] = s
	}
	full := tb.SizeBytes()
	view := tb.State(slots["key-0001"])
	moves := 0
	tb.OnMove(func(from, to Slot) {
		for k, s := range slots {
			if s == from {
				slots[k] = to
				moves++
				return
			}
		}
		t.Fatalf("moved an unknown slot %d", from)
	})
	for i := 0; i < 1000; i++ {
		if i%10 == 0 {
			continue
		}
		k := fmt.Sprintf("key-%04d", i)
		key, st := tb.Delete(slots[k])
		delete(slots, k)
		if string(key) != k || string(st) != k[4:] {
			t.Fatalf("deleting %s returned %q=%q", k, key, st)
		}
	}
	if moves == 0 || tb.SizeBytes() >= full/5 || len(tb.buckets) != 256 {
		t.Fatalf("%d moves, %d bytes (%d full), %d buckets for %d keys", moves, tb.SizeBytes(), full, len(tb.buckets), tb.Len())
	}
	if string(view) != "0001" {
		t.Fatalf("a lent view reads %q after compaction", view)
	}
	i := 0
	tb.Range(func(key, st []byte, s Slot) bool {
		if want := fmt.Sprintf("key-%04d", i); string(key) != want || string(st) != want[4:] || s != slots[want] {
			t.Fatalf("entry %d: %s=%q at %d, want %s at %d", i/10, key, st, s, want, slots[want])
		}
		i += 10
		return true
	})
}

// TestRangeDeletingAsItGoes deletes all but every tenth key from inside
// Range: each key is visited once, and the table compacts once, when
// Range returns.
func TestRangeDeletingAsItGoes(t *testing.T) {
	tb := newTestTable(0)
	for i := 0; i < 500; i++ {
		tb.UpsertState(fmt.Appendf(nil, "key-%03d", i), 1, 1)
	}
	full := tb.SizeBytes()
	var visited []string
	tb.Range(func(key, _ []byte, s Slot) bool {
		visited = append(visited, string(key))
		if len(visited)%10 != 1 {
			tb.Delete(s)
		}
		if tb.SizeBytes() != full {
			t.Fatal("the table compacted inside Range")
		}
		return true
	})
	if len(visited) != 500 || tb.Len() != 50 || tb.SizeBytes() >= full/5 {
		t.Fatalf("visited %d keys, %d left in %d bytes (%d full)", len(visited), tb.Len(), tb.SizeBytes(), full)
	}
	for i, k := range visited {
		if k != fmt.Sprintf("key-%03d", i) {
			t.Fatalf("visit %d was %s", i, k)
		}
	}
}

// TestRangeAllocatesNothing pins Range over a state table at zero
// allocations: it hands out slots, not a closure per entry.
func TestRangeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := newTestTable(0)
	for i := 0; i < 1000; i++ {
		tb.UpsertState(fmt.Appendf(nil, "key-%04d", i), 8, 8)
	}
	n := 0
	fn := func(_, st []byte, _ Slot) bool {
		n += len(st)
		return true
	}
	if allocs := testing.AllocsPerRun(10, func() { tb.Range(fn) }); allocs != 0 {
		t.Fatalf("Range over 1,000 states allocated %.0f times", allocs)
	}
}

// TestValuesAllocatesNothing: replaying value lists reuses the table's
// chain buffer, so a Range that replays 100 five-value lists allocates
// nothing.
func TestValuesAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := newTestTable(0)
	for i := 0; i < 100; i++ {
		for v := 0; v < 5; v++ {
			tb.AppendValue(fmt.Appendf(nil, "key-%03d", i), fmt.Appendf(nil, "v%d", v))
		}
	}
	n := 0
	val := func(v []byte) { n += len(v) }
	fn := func(_, _ []byte, slot Slot) bool {
		tb.Values(slot, val)
		return true
	}
	if allocs := testing.AllocsPerRun(10, func() { tb.Range(fn) }); allocs != 0 {
		t.Fatalf("Range + Values over 100 five-value lists allocated %.0f times", allocs)
	}
	if n != 11*100*5*2 {
		t.Fatalf("replayed %d value bytes, want %d", n, 11*100*5*2)
	}
}
