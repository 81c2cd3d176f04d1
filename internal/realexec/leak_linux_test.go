package realexec_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/realexec"
	"repro/internal/storage"
)

// scratchWatch makes every run open its scratch file in a test directory
// and keeps a second descriptor on it, so that what the file holds can
// be read once the run has closed its own.
type scratchWatch struct {
	sc  *storage.Scratch
	dup *os.File
}

func watchScratch(t *testing.T) *scratchWatch {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	probe, err := os.CreateTemp(dir, "probe-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(probe.Name())
	defer probe.Close()
	if err := syscall.Fallocate(int(probe.Fd()), 0x3, 0, 4096); errors.Is(err, syscall.EOPNOTSUPP) {
		t.Skipf("the filesystem under %s cannot punch holes: %v", dir, err)
	}
	w := &scratchWatch{}
	open := engine.OpenScratch
	t.Cleanup(func() { engine.OpenScratch = open })
	engine.OpenScratch = func() (*storage.Scratch, error) {
		sc, err := open()
		if err != nil {
			return nil, err
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot find the scratch file's descriptor: %v", err)
		}
		for _, fd := range fds {
			if to, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(to, filepath.Join(dir, "onepass-spill-")) {
				w.sc, w.dup, err = sc, nil, nil
				if w.dup, err = os.Open(filepath.Join("/proc/self/fd", fd.Name())); err != nil {
					t.Fatal(err)
				}
				return sc, nil
			}
		}
		t.Fatal("the scratch file's descriptor is not in /proc/self/fd")
		return nil, nil
	}
	return w
}

// left returns the bytes the last run's scratch file still held and had
// allocated when it returned, and lets go of the file.
func (w *scratchWatch) left(t *testing.T) (held, allocated int64) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(w.dup.Fd()), &st); err != nil {
		t.Fatal(err)
	}
	w.dup.Close()
	return w.sc.Held(), st.Blocks * 512
}

// TestScratchHoldsNothingLeftOver: when a run returns, its scratch file
// holds nothing on the DES, nor on the wall clock where no reduce
// attempt can restart; where one can, it holds exactly the map outputs
// parked for the restarts, each in whole blocks. The benchmark spec
// runs clean, under a node kill, under reduce failures and resumed, and
// job-sim-sm's spec under the node kill on the DES.
func TestScratchHoldsNothingLeftOver(t *testing.T) {
	if testing.Short() {
		t.Skip("four benchmark-sized jobs on each backend")
	}
	w := watchScratch(t)
	for _, name := range []string{"bench", "bench-kill", "bench-reduce-failures", "bench-resumed"} {
		job, newQ := peakJob(t, name)
		des := job
		des.Query = newQ()
		if _, err := engine.Run(des); err != nil {
			t.Fatal(err)
		}
		if held, alloc := w.left(t); held != 0 || alloc != 0 {
			t.Errorf("%s on the DES: %d bytes held, %d allocated after the run", name, held, alloc)
		}
		_, parked, err := realexec.RunParked(job, newQ)
		if err != nil {
			t.Fatal(err)
		}
		var want, wantBlocks int64
		for _, n := range parked {
			want, wantBlocks = want+n, wantBlocks+(n+4095)&^4095
		}
		if len(parked) > 0 != job.ReduceRestarts() {
			t.Errorf("%s: %d outputs parked, restarts %v", name, len(parked), job.ReduceRestarts())
		}
		held, alloc := w.left(t)
		t.Logf("%s on the wall clock: %d outputs parked, %d bytes held, %d allocated", name, len(parked), held, alloc)
		if held != want || alloc != wantBlocks {
			t.Errorf("%s on the wall clock: %d bytes held, %d allocated after the run; want the %d parked outputs' %d bytes, %d in blocks",
				name, held, alloc, len(parked), want, wantBlocks)
		}
	}

	// Sort-merge stages its runs off the process: a reducer that dies
	// in the charge beside its staging releases the run. The benchmark's
	// job-sim-sm spec under the node kill has one die so.
	job, newQ, err := jobspec.Build(jobspec.Params{Query: "sessionization", Platform: "sm", Scale: "1/4096",
		DataBytes: 236e9, ChunkBytes: 64e6, StateBytes: 512, Users: 20_000, Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	job.Cluster.MergeFactor = 16
	job.Faults.KillAtMapProgress = map[int]float64{1: 0.5}
	job.Query = newQ()
	if _, err := engine.Run(job); err != nil {
		t.Fatal(err)
	}
	if held, alloc := w.left(t); held != 0 || alloc != 0 {
		t.Errorf("job-sim-sm's spec under a node kill: %d bytes held, %d allocated after the run", held, alloc)
	}
}
