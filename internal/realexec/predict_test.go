package realexec_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/mr"
	"repro/internal/realexec"
)

// peakJob names one job the prediction test measures: "bench" is the
// benchmark's sched-real-inc spec, "bench-resumed" the run the
// scheduler executes to resume it after a crash (jobspec.Resume), "C/F"
// a point of the fig4ab grid (sessionization, 97 GB at 1/4096 on
// sort-merge, B_r at 200 MB as the figure sets it), C in logical MB.
func peakJob(t *testing.T, name string) (engine.JobSpec, func() mr.Query) {
	t.Helper()
	p := jobspec.Params{Query: "sessionization", Scale: "1/4096", StateBytes: 512, Seed: 11, Workers: 2}
	if name == "bench" || name == "bench-resumed" {
		p.Platform, p.DataBytes, p.ChunkBytes, p.Users = "inc-hash", 236e9, 64e6, 20_000
		job, newQ, err := jobspec.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		if name == "bench-resumed" {
			jobspec.Resume(&job)
		}
		return job, newQ
	}
	var c, f int
	if _, err := fmt.Sscanf(name, "%d/%d", &c, &f); err != nil {
		t.Fatal(err)
	}
	cl := jobspec.ClusterAt(1.0 / 4096)
	cl.ReduceBuffer = cl.Model.ScaleBytes(200e6)
	cl.MergeFactor, cl.Parallelism = f, 2
	p.Platform, p.DataBytes, p.ChunkBytes = "sm", 97e9, float64(c)*1e6
	job, newQ, err := p.On(cl)
	if err != nil {
		t.Fatal(err)
	}
	return job, newQ
}

// measuredPeak runs the job in a fresh child process, reps times back to
// back, and returns the largest /gc/heap/live:bytes it read, sampled
// every millisecond.
func measuredPeak(t *testing.T, name string, reps int) int64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestPeakHeapBoundsMeasuredPeak$")
	cmd.Env = append(os.Environ(), fmt.Sprintf("REALEXEC_PEAK_CHILD=%s,%d", name, reps))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child %s: %v\n%s", name, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "peak-live-bytes "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("child %s printed no peak:\n%s", name, out)
	return 0
}

// childPeak is the child's side of measuredPeak.
func childPeak(t *testing.T, arg string) {
	name, reps, _ := strings.Cut(arg, ",")
	n, _ := strconv.Atoi(reps)
	job, newQ := peakJob(t, name)
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	for range n {
		if _, err := realexec.Run(job, newQ); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	fmt.Printf("peak-live-bytes %d\n", peak)
}

// TestPeakHeapBoundsMeasuredPeak holds realexec.PeakHeap to what runs
// measure, each in a child process of its own: across the fig4ab grid
// no job's peak live heap exceeds its prediction, and on the benchmark
// spec — three jobs back to back, as the daemon runs them — the
// prediction covers the peak and stays within 1.5× it, so the soft
// memory limit onepassd derives from it is not loose. Without -short,
// the run that resumes the benchmark spec after a crash stays under its
// prediction too.
func TestPeakHeapBoundsMeasuredPeak(t *testing.T) {
	if arg := os.Getenv("REALEXEC_PEAK_CHILD"); arg != "" {
		childPeak(t, arg)
		return
	}
	if raceEnabled {
		t.Skip("the race detector moves the heap's peak")
	}
	cs, fs := []int{16, 32, 64, 128, 256}, []int{4, 8, 16}
	if testing.Short() {
		cs, fs = []int{32, 128, 256}, []int{4, 16} // benchtables -quick's grid
	}
	predict := func(name string) int64 {
		job, newQ := peakJob(t, name)
		p, err := realexec.PeakHeap(job, newQ)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, f := range fs {
		for _, c := range cs {
			name := fmt.Sprintf("%d/%d", c, f)
			got, want := measuredPeak(t, name, 1), predict(name)
			t.Logf("fig4ab C=%d MB F=%d: peak live %.1f MB, predicted %.1f MB", c, f, float64(got)/1e6, float64(want)/1e6)
			if got > want {
				t.Errorf("fig4ab C=%d MB F=%d: peak live heap %d B over the prediction %d B", c, f, got, want)
			}
		}
	}
	got, want := measuredPeak(t, "bench", 3), predict("bench")
	t.Logf("benchmark spec: peak live %.1f MB, predicted %.1f MB (%.2f×)", float64(got)/1e6, float64(want)/1e6, float64(want)/float64(got))
	if got > want || float64(want) > 1.5*float64(got) {
		t.Errorf("benchmark spec: prediction %d B is not within 1× to 1.5× the peak live heap %d B", want, got)
	}
	if testing.Short() {
		return // the resumed run holds ≈ 0.2 GB for ≈ 20 s
	}
	got, want = measuredPeak(t, "bench-resumed", 1), predict("bench-resumed")
	t.Logf("benchmark spec resumed: peak live %.1f MB, predicted %.1f MB", float64(got)/1e6, float64(want)/1e6)
	if got > want {
		t.Errorf("benchmark spec resumed: peak live heap %d B over the prediction %d B", got, want)
	}
}

// TestResumedPredictionHoldsEveryOutput: a resumed run kills a node and
// checkpoints after every consume, so its reducers may restart and every
// map output stays resident; the prediction of the spec it executes
// counts all of them, not the residency cap a fresh run keeps to.
func TestResumedPredictionHoldsEveryOutput(t *testing.T) {
	fresh, newQ := peakJob(t, "bench")
	resumed, _ := peakJob(t, "bench-resumed")
	if !resumed.ReduceRestarts() || fresh.ReduceRestarts() {
		t.Fatalf("ReduceRestarts: resumed %v, fresh %v", resumed.ReduceRestarts(), fresh.ReduceRestarts())
	}
	framed := fresh
	framed.Query = newQ()
	f, err := engine.NewJobFrame(&framed)
	if err != nil {
		t.Fatal(err)
	}
	chunks, held := int64(f.TotalMaps), int64(fresh.Cluster.SlotCache*fresh.Cluster.Nodes)
	output := int64(float64(f.InputBytesEst/chunks) * fresh.Hints.Km)
	p0, err := realexec.PeakHeap(fresh, newQ)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := realexec.PeakHeap(resumed, newQ)
	if err != nil {
		t.Fatal(err)
	}
	if held >= chunks || p1-p0 < (chunks-held)*output {
		t.Errorf("resumed prediction %d B, fresh %d B: want %d more outputs of %d B each", p1, p0, chunks-held, output)
	}
}
