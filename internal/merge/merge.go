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
	"fmt"
	"sort"

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
// multi-pass merge policy. Files own their bytes: a run handed to
// AddRun becomes its file's buffer, and reads lend views of it that
// stay valid after the file is deleted.
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

// AddRun writes a sorted run of recs pairs to a new spill file, which
// takes the buffer over (storage.AppendOwned: pass an exact-size
// allocation and do not write to it again). The caller must drive
// NeedsMerge/MergeOnce (directly or via a background process).
func (t *Tree) AddRun(p substrate.Proc, run []byte, recs int64) {
	if len(run) > 0 {
		r := t.write(p, "spill", run, recs) // parks: read t.files only after it
		t.files = append(t.files, r)
	}
}

// write stores run as the next file in the tree's name sequence.
func (t *Tree) write(p substrate.Proc, kind string, run []byte, recs int64) diskRun {
	t.seq++
	f := t.store.Create(fmt.Sprintf("%s.%s%d", t.prefix, kind, t.seq), t.class)
	t.store.AppendOwned(p, f, run, t.class, nil)
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
	bySize := append([]diskRun(nil), t.files...)
	sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].file.Size() < bySize[j].file.Size() })
	victims := bySize[:t.f]
	isVictim := make(map[*storage.File]bool, t.f)

	runs := make([][]byte, 0, t.f)
	var records int64
	for _, v := range victims {
		isVictim[v.file] = true
		// A borrowed view: it outlives the Delete below.
		runs = append(runs, t.store.ReadAll(p, v.file, t.seg, t.class))
		records += v.recs
	}
	// The pass itself is pure and its price is known from the inputs'
	// counts, so it runs beside its own charge.
	var merged []byte
	var err error
	p.Offload(func() { merged, err = kvenc.MergeStreamChecked(runs) }, func() {
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

	out := t.write(p, "merge", merged, records)
	kept := t.files[:0]
	for _, r := range t.files {
		if isVictim[r.file] {
			t.store.Delete(r.file)
		} else {
			kept = append(kept, r)
		}
	}
	t.files = append(kept, out)
	return true
}

// Complete runs merges until the on-disk file count drops below the
// 2F−1 threshold ("complete the multi-pass merge"). Called after all
// runs have been added.
func (t *Tree) Complete(p substrate.Proc, charge func(records int64)) {
	for t.NeedsMerge() {
		if !t.MergeOnce(p, charge) {
			return
		}
	}
}

// FinalRuns reads every remaining file (charging I/O) and lends their
// contents — recs pairs in all — for the final streaming merge. The
// files are then deleted: their bytes have been consumed, and the lent
// views are all that keeps them alive.
func (t *Tree) FinalRuns(p substrate.Proc) (runs [][]byte, recs int64) {
	runs = make([][]byte, 0, len(t.files))
	for _, r := range t.files {
		runs = append(runs, t.store.ReadAll(p, r.file, t.seg, t.class))
		recs += r.recs
		t.store.Delete(r.file)
	}
	t.files = nil
	return runs, recs
}

// PeekRuns reads every current file (charging I/O) without consuming
// it: the snapshot path of MapReduce Online re-merges the same on-disk
// runs repeatedly, which is exactly the overhead the paper calls out
// in §3.3(4). The runs are read-only views.
func (t *Tree) PeekRuns(p substrate.Proc) [][]byte {
	runs := make([][]byte, 0, len(t.files))
	for _, r := range t.files {
		runs = append(runs, t.store.ReadAll(p, r.file, t.seg, t.class))
	}
	return runs
}
