package core

import (
	"encoding/binary"

	"repro/internal/bytestore"
	"repro/internal/hashfam"
	"repro/internal/kvenc"
	"repro/internal/mr"
)

// foldTable is the byte-array hash table behind the combining modes of
// the map collector and the node combiner. Pairs fold under their key
// prefixed with a 2-byte partition id: states through cb() (inc set),
// or into a value list the combine function collapses at flush time.
// The table lives under a byte budget; when it refuses an entry the
// contents are emitted as one finished segment per partition and the
// fold continues in a fresh table, so the output may carry several
// segments per partition, each internally duplicate-free.
type foldTable struct {
	r      int // partitions
	budget int64
	h      hashfam.Func
	inc    mr.Incremental // nil: fold with comb
	comb   mr.Combiner
	sorted bool // key-sort each emitted segment
	// emit receives one flush: a segment and its pair count per
	// partition.
	emit func(segs [][]byte, counts []int64)

	table      *bytestore.Table
	pk, merged []byte // prefixed-key and cb() result scratch
}

// live returns the table, starting a fresh one after a flush.
func (f *foldTable) live() *bytestore.Table {
	if f.table == nil {
		f.table = bytestore.NewTable(f.h, f.budget)
	}
	return f.table
}

// add folds one pair — a state when inc is set, a value otherwise —
// flushing when the budget refuses it.
func (f *foldTable) add(part int, key, val []byte) {
	// The table copies keys into its arena on insert and only reads the
	// compound key transiently on lookup, so one scratch serves.
	f.pk = append(append(f.pk[:0], byte(part>>8), byte(part)), key...)
	pk := f.pk
	if f.inc == nil {
		if !f.live().AppendValue(pk, val) {
			f.flush()
			if !f.live().AppendValue(pk, val) {
				panic("core: an empty fold table refused one entry")
			}
		}
		return
	}
	size := f.inc.StateSize()
	cur, slot, found, ok := f.live().UpsertState(pk, len(val), size)
	if !ok {
		f.flush()
		if cur, slot, found, ok = f.live().UpsertState(pk, len(val), size); !ok {
			panic("core: an empty fold table refused one entry")
		}
	}
	if !found {
		copy(cur, val)
		return
	}
	merged := mr.MergeInto(f.inc, &f.merged, key, cur, val)
	if !f.table.SetState(slot, merged) {
		// Arena exhausted by state growth. The flushed segment already
		// carries the key's previous partial state, so the fresh slot
		// must hold only the incoming increment — otherwise the old
		// clicks would be emitted twice.
		f.flush()
		st, _, _, _ := f.live().UpsertState(pk, len(val), size)
		copy(st, val)
	}
}

// flush emits the table contents as one finished segment per partition
// and hands the table back (the next add starts a fresh one). Entries
// keep table iteration order within each partition; in sorted mode
// each segment is then key-sorted (post-fold keys are unique per
// segment, so any stable sort yields a valid sort-merge run).
func (f *foldTable) flush() {
	segs := make([][]byte, f.r)
	counts := make([]int64, f.r)
	var vals [][]byte
	f.live().Range(func(pk, state []byte, slot bytestore.Slot) bool {
		part, key := int(binary.BigEndian.Uint16(pk)), pk[2:]
		if f.inc != nil {
			segs[part] = kvenc.AppendPair(segs[part], key, state)
			counts[part]++
			return true
		}
		// Combine the collected values into (usually) one.
		vals = vals[:0]
		f.table.Values(slot, func(v []byte) { vals = append(vals, v) })
		f.comb.Combine(key, &kvenc.SliceIter{Vals: vals}, func(v []byte) {
			segs[part] = kvenc.AppendPair(segs[part], key, v)
			counts[part]++
		})
		return true
	})
	f.table.Release()
	f.table = nil
	if f.sorted {
		for part, seg := range segs {
			if len(seg) > 0 {
				segs[part], _ = kvenc.SortStream(seg)
			}
		}
	}
	f.emit(segs, counts)
}
