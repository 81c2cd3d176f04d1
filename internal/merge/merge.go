// Package merge implements Hadoop's multi-pass merge of on-disk sorted
// runs — the process the paper's λ_F(n,b) cost analysis models (§3.1,
// Fig 3) and the component its benchmarking identifies as the blocking
// I/O bottleneck of sort-merge.
//
// Policy (quoted from the paper): as initial sorted runs are generated
// they are written to spill files on disk; "whenever the number of
// files on disk reaches 2F−1, a background thread merges the smallest
// F files into a new file on disk". When input ends, merging continues
// until fewer than 2F−1 files remain, and a final merge streams all
// remaining files to the consumer in sorted order.
//
// A Tree tracks the files and exposes the policy as discrete
// operations; the owning task (or a background merger process) drives
// them, so the simulation reproduces both the I/O volume λ predicts
// and the blocking behaviour the paper observes.
package merge

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bytestore"
	"repro/internal/kvenc"
	"repro/internal/storage"
	"repro/internal/substrate"
)

// diskRun is one on-disk sorted run and the pairs it holds (merge CPU
// is charged per pair, from counts carried with the runs rather than
// re-scans of their bytes).
type diskRun struct {
	file *storage.File
	recs int64
}

// Tree is the set of on-disk sorted runs of one task, with the
// multi-pass merge policy. A run is written once, staged by the closure
// that produced it, and read back through windows (Store.Stream).
type Tree struct {
	store  *storage.Store
	class  storage.IOClass
	prefix string
	f      int
	seg    int64 // read segment size for merge reads (physical bytes)
	files  []diskRun
	seq    int
}

// NewTree creates a merge tree whose files live on store with the
// given I/O class (MapSpill or ReduceSpill) and merge factor F ≥ 2.
// readSegment bounds each merge read request (≤0 means whole file).
func NewTree(store *storage.Store, class storage.IOClass, prefix string, f int, readSegment int64) *Tree {
	if f < 2 {
		panic(fmt.Sprintf("merge: factor %d < 2", f))
	}
	return &Tree{store: store, class: class, prefix: prefix, f: f, seg: readSegment}
}

// AddRun files a sorted run of recs pairs, staged on the tree's store,
// as a new spill file, which takes run: the caller's Release of it then
// does nothing. The caller must drive NeedsMerge/MergeOnce (directly or
// via a background process).
func (t *Tree) AddRun(p substrate.Proc, run *storage.Taken, recs int64) {
	if recs > 0 {
		r := t.write(p, "spill", run, recs) // parks: read t.files only after it
		t.files = append(t.files, r)
	}
}

// write files run as the next file in the tree's name sequence, which
// holds its bytes from then on, and releases run.
func (t *Tree) write(p substrate.Proc, kind string, run *storage.Taken, recs int64) diskRun {
	defer run.Release()
	t.seq++
	f := t.store.Create(fmt.Sprintf("%s.%s%d", t.prefix, kind, t.seq), t.class)
	t.store.Give(p, f, *run, t.class)
	return diskRun{f, recs}
}

// NeedsMerge reports whether the background-merge trigger has fired
// (2F−1 or more files on disk).
func (t *Tree) NeedsMerge() bool { return len(t.files) >= 2*t.f-1 }

// MergeOnce merges the smallest F files into a new on-disk file,
// charging reads, CPU, and the write. charge bills the virtual CPU of
// moving that many records through one pass (read, compare, write);
// nil means free CPU. It returns false if fewer than F files exist
// (nothing merged).
func (t *Tree) MergeOnce(p substrate.Proc, charge func(records int64)) bool {
	if len(t.files) < t.f {
		return false
	}
	// Pick the F smallest files; ties resolved by age (stable sort on
	// a copy keeps t.files in creation order).
	victims := slices.Clone(t.files)
	slices.SortStableFunc(victims, func(a, b diskRun) int { return cmp.Compare(a.file.Size(), b.file.Size()) })
	victims = victims[:t.f]

	runs := make([]kvenc.Spill, 0, t.f)
	var records, size int64
	for _, v := range victims {
		runs = append(runs, t.store.Stream(p, v.file, t.seg, t.class))
		records += v.recs
		size += v.file.Size()
	}
	// The pass itself is pure and its price is known from the inputs'
	// counts, so it runs beside its own charge, and stages its output.
	var merged storage.Taken
	defer merged.Release() // if the charge panics before write takes it
	var err error
	p.Offload(func() {
		var out []byte
		out, err = kvenc.Merge(runs, nil).AppendTo(bytestore.Get(int(size)))
		merged = t.store.Stage(out)
		bytestore.Put(out)
	}, func() {
		if charge != nil {
			charge(records)
		}
	})
	if err != nil {
		// The frame layer (when on) catches disk corruption before the
		// bytes reach here; a corrupt run past that point is a bug, not
		// a recoverable fault — fail loudly, never truncate silently.
		panic(fmt.Errorf("merge: %s file in %s.* is corrupt: %w", t.class, t.prefix, err))
	}

	out := t.write(p, "merge", &merged, records)
	t.files = slices.DeleteFunc(t.files, func(r diskRun) bool { return slices.Contains(victims, r) })
	for _, v := range victims {
		t.store.Delete(v.file)
	}
	t.files = append(t.files, out)
	return true
}

// Complete runs merges until the on-disk file count drops below the
// 2F−1 threshold: the background merge after a run is added, and after
// the last one "complete the multi-pass merge".
func (t *Tree) Complete(p substrate.Proc, charge func(records int64)) {
	for t.NeedsMerge() {
		if !t.MergeOnce(p, charge) {
			return
		}
	}
}

// Runs charges reading every current file — recs pairs in all — and
// returns them for a merge to read until Drop. The final streaming
// merge reads them once; the snapshot path of MapReduce Online
// re-merges the same on-disk runs repeatedly, which is exactly the
// overhead the paper calls out in §3.3(4).
func (t *Tree) Runs(p substrate.Proc) (runs []kvenc.Spill, recs int64) {
	runs = make([]kvenc.Spill, 0, len(t.files))
	for _, r := range t.files {
		runs = append(runs, t.store.Stream(p, r.file, t.seg, t.class))
		recs += r.recs
	}
	return runs, recs
}

// Drop deletes every file once the final merge is done with them.
func (t *Tree) Drop() {
	for _, r := range t.files {
		t.store.Delete(r.file)
	}
	t.files = nil
}
