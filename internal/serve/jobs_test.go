package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/sched"
)

// slowExec lets the overload and drain tests hold runs open; the
// release channel gates completion.
type slowExec struct {
	started atomic.Int64
	release chan struct{}
}

func (e *slowExec) Run(ctx context.Context, spec sched.JobSpec, resume *sched.ResumeInfo) (*engine.Report, error) {
	e.started.Add(1)
	select {
	case <-e.release:
		return &engine.Report{Query: spec.Query, OutputRecords: 1}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func jobsServer(t *testing.T, cfg sched.Config) (*httptest.Server, *sched.Scheduler) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := sched.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ing, err := ingest.Open(childConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(ing, s))
	t.Cleanup(srv.Close)
	return srv, s
}

// specBody is a valid tiny sim job (the same shape the sched package's
// engine-integration tests run in ~10ms).
func specBody(org string) string {
	return fmt.Sprintf(`{"org":%q,"user":"ops","query":"clickcount","platform":"inc-hash",
		"data_bytes":8e8,"chunk_bytes":48e6,"nodes":3,"reducers":2,"seed":7}`, org)
}

func doJSON(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestJobsSubmitRunHistory(t *testing.T) {
	srv, _ := jobsServer(t, sched.Config{})

	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("acme"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job sched.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Spec.Org != "acme" {
		t.Fatalf("job %+v", job)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+job.ID, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.State == sched.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+job.ID+"/runs", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("runs: %d %s", resp.StatusCode, body)
	}
	var runs []sched.Run
	if err := json.Unmarshal(body, &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].Report == nil || runs[0].Report.OutputRecords == 0 {
		t.Fatalf("run history %+v", runs)
	}

	// List filtered by org.
	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs?org=acme", "")
	var jobs []sched.Job
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != job.ID {
		t.Fatalf("list %+v", jobs)
	}
	resp, body = doJSON(t, "GET", srv.URL+"/v1/jobs?org=other", "")
	if err := json.Unmarshal(body, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("foreign org sees %+v", jobs)
	}
}

func TestJobsValidationAndNotFound(t *testing.T) {
	srv, _ := jobsServer(t, sched.Config{})

	// Unknown query → 400.
	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", `{"org":"a","user":"u","query":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: %d %s", resp.StatusCode, body)
	}
	// Unknown JSON field → 400 (typos must not silently default).
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", `{"org":"a","user":"u","query":"clickcount","nodez":4}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
	// Malformed body → 400.
	resp, _ = doJSON(t, "POST", srv.URL+"/v1/jobs", `{`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	// Unknown ids → 404 on get, runs, and cancel.
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/jobs/j999999"},
		{"GET", "/v1/jobs/j999999/runs"},
		{"DELETE", "/v1/jobs/j999999"},
	} {
		resp, body = doJSON(t, probe.method, srv.URL+probe.path, "")
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d %s", probe.method, probe.path, resp.StatusCode, body)
		}
	}
}

// TestJobsWedgedStoreIs503 holds the two kinds of submit failure apart:
// a good spec the job store cannot persist (here every commit tears, so
// the log wedges) is the daemon's failure, 503 as /v1/events answers a
// wedged WAL, while a bad spec stays a 400 on that same wedged store.
func TestJobsWedgedStoreIs503(t *testing.T) {
	// serve may not import the log package; ingest's failpoints embed
	// the hooks the job log takes.
	var fail ingest.Failpoints
	fail.TornAppend = func(int64) int { return 0 }
	var cfg sched.Config
	cfg.Fail = &fail.Failpoints
	srv, s := jobsServer(t, cfg)

	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("acme"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on a wedged job store: %d %s, want 503", resp.StatusCode, body)
	}
	if jobs := s.List(""); len(jobs) != 0 {
		t.Fatalf("unpersisted submit is listed: %+v", jobs)
	}
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", `{"org":"acme","user":"u","query":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec on a wedged job store: %d %s, want 400", resp.StatusCode, body)
	}
}

// dirDigest is the names and contents of every file under dir.
func dirDigest(t *testing.T, dir string) string {
	t.Helper()
	var sb strings.Builder
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		fmt.Fprintf(&sb, "%s %x\n", path, sha256.Sum256(data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestJobsRejectedSpecsPersistNothing posts the bodies the daemon used
// to acknowledge with 201 and then die on in the run goroutine — again
// at every restart, the run being persisted — or fail only at run time
// (sched/testdata/rejected_specs.jsonl: sizes that scale to zero
// physical bytes, a negative pool, scales outside (0, 1], a session
// state too small for a click, an aggregation tree without node
// combining or on hop). Each is a 400 at submit that leaves the job
// list empty and the job store's files untouched.
func TestJobsRejectedSpecsPersistNothing(t *testing.T) {
	dir := t.TempDir()
	srv, _ := jobsServer(t, sched.Config{Dir: dir})
	before := dirDigest(t, dir)
	bodies, err := os.ReadFile("../sched/testdata/rejected_specs.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	// And a user pool the click record's 7-digit id cannot hold: it used
	// to be accepted, and sized an allocation from the request body.
	rejected := append(strings.Split(strings.TrimSpace(string(bodies)), "\n"),
		`{"org":"a","query":"clickcount","users":10000001}`)
	for _, body := range rejected {
		resp, msg := doJSON(t, "POST", srv.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: %d %s, want 400", body, resp.StatusCode, msg)
		}
	}
	resp, list := doJSON(t, "GET", srv.URL+"/v1/jobs", "")
	var jobs []sched.Job
	if err := json.Unmarshal(list, &jobs); err != nil || resp.StatusCode != http.StatusOK || len(jobs) != 0 {
		t.Errorf("GET /v1/jobs after the rejected submits: %d %s (%v), want an empty list", resp.StatusCode, list, err)
	}
	if after := dirDigest(t, dir); after != before {
		t.Errorf("rejected submits wrote to the job store:\nbefore\n%safter\n%s", before, after)
	}
}

func TestJobsOverloadSheds429(t *testing.T) {
	exec := &slowExec{release: make(chan struct{})}
	srv, _ := jobsServer(t, sched.Config{
		Exec:          exec,
		DefaultLimits: sched.Limits{MaxConcurrent: 1, MaxQueued: 1},
	})
	defer close(exec.release)

	// First fills the run slot, second the queue; the third sheds.
	for i := 0; i < 2; i++ {
		resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("acme"))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("acme"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another org is unaffected.
	resp, body = doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("other"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("other org shed too: %d %s", resp.StatusCode, body)
	}
}

func TestJobsCancelIdempotent(t *testing.T) {
	exec := &slowExec{release: make(chan struct{})}
	srv, _ := jobsServer(t, sched.Config{Exec: exec})
	defer close(exec.release)

	resp, body := doJSON(t, "POST", srv.URL+"/v1/jobs", specBody("acme"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job sched.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, body = doJSON(t, "DELETE", srv.URL+"/v1/jobs/"+job.ID, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel #%d: %d %s", i+1, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
		if job.State != sched.StateCanceled {
			t.Fatalf("cancel #%d state %q", i+1, job.State)
		}
	}
}

func TestJobsLimitsRoundTrip(t *testing.T) {
	srv, _ := jobsServer(t, sched.Config{})

	resp, body := doJSON(t, "GET", srv.URL+"/v1/orgs/acme/limits", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get limits: %d %s", resp.StatusCode, body)
	}
	var l sched.Limits
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if l.MaxConcurrent <= 0 || l.MaxQueued <= 0 {
		t.Fatalf("default limits %+v", l)
	}

	resp, body = doJSON(t, "PUT", srv.URL+"/v1/orgs/acme/limits", `{"max_concurrent":7,"max_queued":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put limits: %d %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "GET", srv.URL+"/v1/orgs/acme/limits", "")
	if err := json.Unmarshal(body, &l); err != nil {
		t.Fatal(err)
	}
	if l.MaxConcurrent != 7 || l.MaxQueued != 9 {
		t.Fatalf("limits after PUT: %+v", l)
	}
	// Unknown field → 400.
	resp, _ = doJSON(t, "PUT", srv.URL+"/v1/orgs/acme/limits", `{"max_conc":7}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown limits field: %d", resp.StatusCode)
	}
}

// TestJobsDrainOnShutdown exercises the serve.Run drain path: with a
// run in flight, shutting down must wait for it (onepassd semantics —
// nothing acknowledged is abandoned), refuse new submissions, and
// leave the job store clean for reopen.
func TestJobsDrainOnShutdown(t *testing.T) {
	dir := t.TempDir()
	exec := &slowExec{release: make(chan struct{})}
	s, err := sched.Open(sched.Config{Dir: dir, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	ing, err := ingest.Open(childConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, ing, Options{
			Addr: "127.0.0.1:0", AddrFile: addrFile,
			DrainTimeout: 10 * time.Second, Jobs: s,
		})
	}()
	var url string
	for i := 0; i < 200; i++ {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			url = "http://" + string(b)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if url == "" {
		t.Fatal("server never published its address")
	}

	resp, body := doJSON(t, "POST", url+"/v1/jobs", specBody("acme"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var job sched.Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	for i := 0; exec.started.Load() == 0 && i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
	}

	cancel() // the SIGTERM path: drain, not abandon
	time.AfterFunc(200*time.Millisecond, func() { close(exec.release) })
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Reopen: the in-flight run completed during drain.
	s2, err := sched.Open(sched.Config{Dir: dir, Exec: &slowExec{release: make(chan struct{})}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j, err := s2.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != sched.StateDone {
		t.Fatalf("job after drained shutdown: %q, want done", j.State)
	}
	if s2.Recovery.ResumedRuns != 0 || s2.Recovery.RequeuedRuns != 0 {
		t.Fatalf("drained shutdown left recovery work: %+v", s2.Recovery)
	}
}

// TestMetricszReportsTheScheduler pins /metricsz's shape: the
// ingester's counters stay at the top level, where the benchmark
// harness decodes them, and an attached scheduler's counters and the
// byte budget's gauges sit under "jobs".
func TestMetricszReportsTheScheduler(t *testing.T) {
	srv, s := jobsServer(t, sched.Config{Exec: &slowExec{release: make(chan struct{})}})
	if resp, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs", specBody("acme")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s %s", resp.Status, body)
	}
	_, body := doJSON(t, http.MethodGet, srv.URL+"/metricsz", "")
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"query", "accepted_batches", "inflight_bytes", "wal_syncs", "recovery"} {
		if _, ok := m[k]; !ok {
			t.Errorf("ingest key %q missing from the top level", k)
		}
	}
	var jobs map[string]json.RawMessage
	if err := json.Unmarshal(m["jobs"], &jobs); err != nil {
		t.Fatalf("jobs: %v in %s", err, body)
	}
	want := []string{"budget_bytes", "canceled", "completed", "cron_ticks", "draining", "failed", "jobs",
		"queued", "recovery", "reserved_bytes", "running", "shed", "soft_limit_bytes", "store", "submitted", "waiting_runs"}
	if got := slices.Sorted(maps.Keys(jobs)); !slices.Equal(got, want) {
		t.Errorf("jobs keys %q, want %q", got, want)
	}
	if string(jobs["running"]) != "1" || string(jobs["submitted"]) != "1" || string(jobs["waiting_runs"]) != "0" {
		t.Errorf("jobs %s", m["jobs"])
	}
	if m := s.Metrics(); m.BudgetBytes <= 0 {
		t.Errorf("scheduler without a budget reports %d budget bytes", m.BudgetBytes)
	}

	plain := httptest.NewServer(NewHandler(testIngester(t, t.TempDir(), nil, 0), nil))
	defer plain.Close()
	if _, body := doJSON(t, http.MethodGet, plain.URL+"/metricsz", ""); strings.Contains(string(body), `"jobs"`) {
		t.Errorf("no scheduler, but /metricsz has jobs: %s", body)
	}
}
