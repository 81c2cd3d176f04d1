package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/realexec"
	"repro/internal/sched"
)

// TestMain doubles as the daemon: with ONEPASSD_TEST_ARGS set (flags
// separated by tabs) this binary runs main, so a test can drive
// the real process, its soft memory limit included, while the test
// process itself never touches its own GC settings.
func TestMain(m *testing.M) {
	if args := os.Getenv("ONEPASSD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"onepassd"}, strings.Split(args, "\t")...)
		main()
		return
	}
	os.Exit(m.Run())
}

// statusKB reads a kB field of /proc/<pid>/status.
func statusKB(t *testing.T, pid int, field string) int64 {
	t.Helper()
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n << 10
		}
	}
	t.Fatalf("no %s in /proc/%d/status", field, pid)
	return 0
}

// TestFourJobsUnderABudgetOfTwo runs four real-backend jobs from two
// orgs on a daemon whose budget fits two of them: the two that do not
// fit wait, queued and not shed; the process's resident set stays
// inside the budget plus what it held before the jobs; and every
// persisted Report equals a direct run's of its spec.
func TestFourJobsUnderABudgetOfTwo(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs four real jobs in a child daemon and reads its resident set")
	}
	spec := sched.JobSpec{Query: "sessionization", Platform: "inc-hash", Backend: "real",
		DataBytes: 60e9, Users: 20_000, Workers: 2, Seed: 5}
	spec.Normalize()
	peak := sched.EngineExecutor{}.Predict(spec, nil)
	if peak <= 0 {
		t.Fatalf("prediction %d", peak)
	}
	size := 3 * peak // jobs take at most three quarters of it: room for two

	d := startDaemon(t, "-jobs-max-concurrent", "4", "-memory-budget", fmt.Sprint(size))
	base := d.base
	baseRSS := statusKB(t, d.cmd.Process.Pid, "VmRSS")

	var ids []string
	for i, org := range []string{"acme", "globex", "acme", "globex"} {
		s := spec
		s.Org, s.Name = org, fmt.Sprint("job", i)
		ids = append(ids, d.submit(t, s))
	}
	var waited, ran int
	d.await(t, func(m sched.Metrics) bool {
		waited, ran = max(waited, m.WaitingRuns), max(ran, m.Running)
		if m.ReservedBytes > size || m.Shed > 0 || m.Failed > 0 {
			t.Fatalf("budget %d: %+v", size, m)
		}
		return m.Completed == 4
	})
	hwm := statusKB(t, d.cmd.Process.Pid, "VmHWM")
	t.Logf("budget %.1f MB (prediction %.1f MB a job); RSS %.1f MB before the jobs, peak %.1f MB; at most %d running, %d waiting",
		float64(size)/1e6, float64(peak)/1e6, float64(baseRSS)/1e6, float64(hwm)/1e6, ran, waited)
	if ran != 2 || waited < 1 {
		t.Errorf("at most %d runs ran and %d waited; want 2 running beside a waiting one", ran, waited)
	}
	if hwm > baseRSS+size {
		t.Errorf("peak RSS %d B over the budget %d B plus the %d B held before the jobs", hwm, size, baseRSS)
	}

	job, newQ, err := sched.BuildJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := realexec.Run(job, newQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		var runs []sched.Run
		resp, err := http.Get(base + "/v1/jobs/" + id + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&runs)
		resp.Body.Close()
		if len(runs) != 1 || runs[0].Report == nil {
			t.Fatalf("job %s: runs %+v", id, runs)
		}
		if d := job.RealRuns().Diff(direct.Profile(), runs[0].Report); d != "" {
			t.Errorf("job %s: Report field %s differs from a direct run's", id, d)
		}
	}
	d.stop(t)
}

// TestIngestBesideAnOverBudgetRun: a run predicted above the whole
// budget runs alone, with the soft memory limit wired, yet ingest keeps
// the quarter of the budget no run takes, so events are still accepted;
// and a DES run beside it, which has no prediction, lifts the soft limit
// while it runs.
func TestIngestBesideAnOverBudgetRun(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs real and DES jobs in a child daemon")
	}
	real := sched.JobSpec{Org: "acme", Query: "sessionization", Platform: "inc-hash", Backend: "real",
		DataBytes: 1e12, Users: 20_000, Workers: 2, Seed: 5}
	real.Normalize()
	peak := sched.EngineExecutor{}.Predict(real, nil)
	size := peak / 2
	d := startDaemon(t, "-memory-budget", fmt.Sprint(size))
	d.submit(t, real)
	d.await(t, func(m sched.Metrics) bool { return m.Running == 1 })
	if m := d.metrics(t); m.ReservedBytes != peak || m.SoftLimitBytes <= peak {
		t.Fatalf("over-budget run: %+v", m)
	}

	// One batch of a fifth of the budget: it fits ingest's quarter.
	rec := fmt.Sprintf("%013d\tuser0001\t/page001\t200\t9\tMoz\n", time.Now().UnixMilli())
	batch := strings.Repeat(rec, int(size/5)/len(rec))
	resp, err := http.Post(d.base+"/v1/events", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("%d B of events beside a run reserving %d B of a %d B budget: %s %s", len(batch), peak, size, resp.Status, reply)
	}

	sim := sched.JobSpec{Org: "globex", Query: "sessionization", Platform: "sm", DataBytes: 236e9, Users: 20_000}
	sim.Normalize()
	d.submit(t, sim)
	d.await(t, func(m sched.Metrics) bool { return m.Running == 2 })
	if m := d.metrics(t); m.SoftLimitBytes != 0 || m.ReservedBytes != peak {
		t.Errorf("beside a DES run: %+v; want no soft limit", m)
	}
	d.await(t, func(m sched.Metrics) bool {
		if m.Failed > 0 {
			t.Fatalf("a run failed: %+v", m)
		}
		return m.Completed == 2
	})
	if m := d.metrics(t); m.SoftLimitBytes != 0 || m.ReservedBytes != 0 {
		t.Errorf("idle: %+v", m)
	}
	d.stop(t)
}

// daemon is a child onepassd with a job store, serving on base.
type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer
	base   string
}

// startDaemon starts this test binary as onepassd with the given flags
// besides its address and directories, and waits until it serves. The
// child's environment has no GOMEMLIMIT or GOGC, so it wires its own
// soft limit.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-wal-dir", filepath.Join(dir, "wal"),
		"-jobs-dir", filepath.Join(dir, "jobs")}, flags...)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: exec.Command(exe)}
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMEMLIMIT=") && !strings.HasPrefix(kv, "GOGC=") {
			d.cmd.Env = append(d.cmd.Env, kv)
		}
	}
	d.cmd.Env = append(d.cmd.Env, "ONEPASSD_TEST_ARGS="+strings.Join(args, "\t"))
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill(); d.cmd.Wait() })
	for deadline := time.Now().Add(20 * time.Second); d.base == ""; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %s", d.stderr.String())
		}
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			if resp, err := http.Get("http://" + string(addr) + "/healthz"); err == nil {
				resp.Body.Close()
				d.base = "http://" + string(addr)
			}
		}
	}
	return d
}

// submit posts spec and returns its job id.
func (d *daemon) submit(t *testing.T, spec sched.JobSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j sched.Job
	json.NewDecoder(resp.Body).Decode(&j)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit %s: %s", spec.Name, resp.Status)
	}
	return j.ID
}

// metrics reads /metricsz's "jobs" object.
func (d *daemon) metrics(t *testing.T) sched.Metrics {
	t.Helper()
	var m struct{ Jobs sched.Metrics }
	resp, err := http.Get(d.base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m.Jobs
}

// await polls the scheduler's metrics every 2 ms until done holds.
func (d *daemon) await(t *testing.T, done func(sched.Metrics) bool) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		m := d.metrics(t)
		if done(m) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting: %+v", m)
		}
	}
}

// stop sends SIGTERM and wants a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("daemon exit: %v\n%s", err, d.stderr.String())
	}
}
