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
	rt     *Runtime
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

func (f *foldTable) reset() { f.table = bytestore.NewTable(f.h, f.budget) }

// add folds one pair — a state when inc is set, a value otherwise —
// flushing when the budget refuses it.
func (f *foldTable) add(part int, key, val []byte) {
	// The table copies keys into its arena on insert and only reads the
	// compound key transiently on lookup, so one scratch serves.
	f.pk = append(append(f.pk[:0], byte(part>>8), byte(part)), key...)
	pk := f.pk
	if f.inc == nil {
		if !f.table.AppendValue(pk, val) {
			f.flush()
			if !f.table.AppendValue(pk, val) {
				panic("core: an empty fold table refused one entry")
			}
		}
		return
	}
	size := f.inc.StateSize()
	cur, found, ok := f.table.UpsertState(pk, len(val), size)
	if !ok {
		f.flush()
		if cur, found, ok = f.table.UpsertState(pk, len(val), size); !ok {
			panic("core: an empty fold table refused one entry")
		}
	}
	if !found {
		copy(cur, val)
		return
	}
	merged := mr.MergeInto(f.inc, &f.merged, key, cur, val)
	if !f.table.SetState(pk, merged) {
		// Arena exhausted by state growth. The flushed segment already
		// carries the key's previous partial state, so the fresh slot
		// must hold only the incoming increment — otherwise the old
		// clicks would be emitted twice.
		f.flush()
		st, _, _ := f.table.UpsertState(pk, len(val), size)
		copy(st, val)
	}
}

// flush emits the table contents as one finished segment per partition
// and resets the table. The table walk is serial (it owns the iteration
// cursor), but the per-partition combine + encode work runs on the
// kernel's compute pool: partitions are disjoint, entries keep table
// iteration order within each partition, and the table is only read
// until reset — so the emitted segments are bytewise identical to a
// serial flush for any worker count. In sorted mode each segment is
// key-sorted (post-fold keys are unique per segment, so any stable sort
// yields a valid sort-merge run) and encoding runs serially so
// SortStream can shard each partition's sort onto the pool itself (no
// nested fan-out).
func (f *foldTable) flush() {
	type entry struct {
		key    []byte
		state  []byte
		values func(func([]byte))
	}
	perPart := make([][]entry, f.r)
	f.table.Range(func(pk, state []byte, values func(func([]byte))) bool {
		part, key := int(binary.BigEndian.Uint16(pk)), pk[2:]
		perPart[part] = append(perPart[part], entry{key: key, state: state, values: values})
		return true
	})
	segs := make([][]byte, f.r)
	counts := make([]int64, f.r)
	encode := func(part int) {
		var seg []byte
		var n int64
		for _, e := range perPart[part] {
			if f.inc != nil {
				seg = kvenc.AppendPair(seg, e.key, e.state)
				n++
				continue
			}
			// Combine the collected values into (usually) one.
			var vals [][]byte
			e.values(func(v []byte) { vals = append(vals, v) })
			f.comb.Combine(e.key, &kvenc.SliceIter{Vals: vals}, func(v []byte) {
				seg = kvenc.AppendPair(seg, e.key, v)
				n++
			})
		}
		if f.sorted && len(seg) > 0 {
			seg, _ = f.rt.SortStream(seg)
		}
		segs[part], counts[part] = seg, n
	}
	if f.rt.P != nil && !f.sorted {
		f.rt.P.ParallelFor(f.r, encode)
	} else {
		for part := 0; part < f.r; part++ {
			encode(part)
		}
	}
	f.emit(segs, counts)
	f.reset()
}
