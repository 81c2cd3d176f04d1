package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ingest"
)

// TestMain doubles as the daemon child for the process-level tests:
// when SERVE_TEST_CHILD=1, this binary IS onepassd (opened on the
// directory in SERVE_TEST_DIR), so the tests can kill -9 a real
// process and restart it — the crash model no in-process harness can
// fully reproduce.
func TestMain(m *testing.M) {
	if os.Getenv("SERVE_TEST_CHILD") == "1" {
		runChild()
		return
	}
	os.Exit(m.Run())
}

func childConfig(dir string) ingest.Config {
	factory, validate, err := ingest.StandardQuery("clickcount")
	if err != nil {
		panic(err)
	}
	return ingest.Config{
		Dir:             dir,
		QueryName:       "clickcount",
		NewQuery:        factory,
		Validate:        validate,
		SealBytes:       4 << 10,
		CheckpointEvery: 5,
	}
}

func runChild() {
	ing, err := ingest.Open(childConfig(os.Getenv("SERVE_TEST_DIR")))
	if err != nil {
		fmt.Fprintln(os.Stderr, "child open:", err)
		os.Exit(1)
	}
	err = Run(context.Background(), ing, Options{
		Addr:         "127.0.0.1:0",
		AddrFile:     os.Getenv("SERVE_TEST_ADDRFILE"),
		DrainTimeout: 20 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child run:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// --- in-process HTTP tests ---

func testIngester(t *testing.T, dir string, fail *ingest.Failpoints, budget int64) *ingest.Ingester {
	t.Helper()
	cfg := childConfig(dir)
	cfg.Fail = fail
	if budget > 0 {
		cfg.MaxInflightBytes = budget
	}
	ing, err := ingest.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ing
}

func clickLine(i int) string {
	return fmt.Sprintf("%013d\tuser%04d\t/page%03d\t200\t9\tMoz", 1_700_000_000_000+int64(i)*991, i%5, i%11)
}

func postBatch(t *testing.T, url string, lines ...string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/events", "text/plain", strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestHTTPEndpoints(t *testing.T) {
	ing := testIngester(t, t.TempDir(), nil, 0)
	srv := httptest.NewServer(NewHandler(ing, nil))
	defer srv.Close()

	resp := postBatch(t, srv.URL, clickLine(0), clickLine(1), clickLine(2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post: %v", resp.Status)
	}
	var ack struct {
		Seq     int64 `json:"seq"`
		Records int   `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || ack.Seq != 1 || ack.Records != 3 {
		t.Fatalf("ack: %+v (%v)", ack, err)
	}

	if resp := postBatch(t, srv.URL, "not a click record"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad record: %v", resp.Status)
	}
	if resp := postBatch(t, srv.URL); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %v", resp.Status)
	}

	// Stats must eventually reflect the folded batch with γ = 1.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(srv.URL + "/v1/stats?limit=10")
		if err != nil {
			t.Fatal(err)
		}
		var st ingest.Stats
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if st.FoldedRecords == 3 {
			if st.Gamma != 1 || st.AckedBatches != 1 || st.Query != "clickcount" {
				t.Fatalf("stats: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fold never caught up: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}

	if r, _ := http.Get(srv.URL + "/healthz"); r.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", r.Status)
	}
	r, err := http.Get(srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var m ingest.MetricsSnapshot
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil || m.AcceptedBatches != 1 {
		t.Fatalf("metricsz: %+v (%v)", m, err)
	}
	r.Body.Close()

	if r, _ := http.Get(srv.URL + "/v1/stats?limit=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad limit: %v", r.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ing.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// A drained service reports unhealthy and refuses new batches.
	if r, _ := http.Get(srv.URL + "/healthz"); r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained healthz: %v", r.Status)
	}
	if resp := postBatch(t, srv.URL, clickLine(9)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained post: %v", resp.Status)
	}
}

// TestHTTPOverload429 stalls the folder and posts until the byte
// budget sheds: the response must be 429 with a Retry-After header,
// and must clear once the stall lifts.
func TestHTTPOverload429(t *testing.T) {
	gate := make(chan struct{})
	fail := &ingest.Failpoints{FoldDelay: func(seq int64) { <-gate }}
	ing := testIngester(t, t.TempDir(), fail, 4<<10)
	srv := httptest.NewServer(NewHandler(ing, nil))
	defer srv.Close()

	lines := make([]string, 20)
	for i := range lines {
		lines[i] = clickLine(i)
	}
	var sawRetry bool
	for i := 0; i < 100; i++ {
		resp := postBatch(t, srv.URL, lines...)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") != "1" {
				t.Fatalf("429 without Retry-After: %v", resp.Header)
			}
			sawRetry = true
			break
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: %v", i, resp.Status)
		}
	}
	if !sawRetry {
		t.Fatal("overload never produced a 429")
	}
	close(gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp := postBatch(t, srv.URL, lines...)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("429s never cleared after the stall")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ing.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// --- process-level tests (re-exec this test binary as the daemon) ---

type child struct {
	cmd  *exec.Cmd
	addr string
}

func startChild(t *testing.T, dir string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		"SERVE_TEST_CHILD=1",
		"SERVE_TEST_DIR="+dir,
		"SERVE_TEST_ADDRFILE="+addrFile,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			c := &child{cmd: cmd, addr: "http://" + string(data)}
			// The daemon may still be a hair from Serve; wait for health.
			for time.Now().Before(deadline) {
				if r, err := http.Get(c.addr + "/healthz"); err == nil {
					r.Body.Close()
					return c
				}
				time.Sleep(5 * time.Millisecond)
			}
			t.Fatal("child never became healthy")
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("child never published its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *child) post(t *testing.T, lines ...string) int64 {
	t.Helper()
	resp, err := http.Post(c.addr+"/v1/events", "text/plain", bytes.NewBufferString(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("post: %v: %s", resp.Status, body)
	}
	var ack struct {
		Seq int64 `json:"seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.Seq
}

func (c *child) stats(t *testing.T) ingest.Stats {
	t.Helper()
	resp, err := http.Get(c.addr + "/v1/stats?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ingest.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// oracleServeStats folds the same batches in-process, uninterrupted.
func oracleServeStats(t *testing.T, batches [][]string) ingest.Stats {
	t.Helper()
	ing, err := ingest.Open(childConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for _, lines := range batches {
		recs := make([][]byte, len(lines))
		for i, l := range lines {
			recs[i] = []byte(l)
		}
		if _, err := ing.Ingest(recs); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := ing.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	return ing.Stats(0)
}

func mkServeBatches(n, per int) [][]string {
	batches := make([][]string, n)
	for b := 0; b < n; b++ {
		lines := make([]string, per)
		for j := 0; j < per; j++ {
			lines[j] = clickLine(b*per + j)
		}
		batches[b] = lines
	}
	return batches
}

// TestProcessKillRecovery kills the daemon process with SIGKILL
// between acknowledged batches, restarts it on the same directory,
// finishes the stream, drains via SIGTERM, and requires the final
// answers to be bit-identical to an uninterrupted run.
func TestProcessKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	const n, per, killAfter = 24, 4, 11
	batches := mkServeBatches(n, per)
	oracle := oracleServeStats(t, batches)

	dir := t.TempDir()
	c := startChild(t, dir)
	for b := 0; b < killAfter; b++ {
		if seq := c.post(t, batches[b]...); seq != int64(b+1) {
			t.Fatalf("batch %d acked as %d", b+1, seq)
		}
	}
	// Nothing in flight: SIGKILL between requests. Every acknowledged
	// batch must survive; no more, no fewer.
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()

	c2 := startChild(t, dir)
	st := c2.stats(t)
	if st.AckedBatches != killAfter || st.AckedRecords != killAfter*per {
		t.Fatalf("after kill -9: %+v", st)
	}
	for b := killAfter; b < n; b++ {
		c2.post(t, batches[b]...)
	}
	// Graceful drain: SIGTERM, exit status 0.
	if err := c2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c2.cmd.Wait(); err != nil {
		t.Fatalf("drained daemon exited non-zero: %v", err)
	}

	// Reopen the directory in-process to read the drained state.
	ing, err := ingest.Open(childConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r := ing.Recovery; r.ReplayedBatches != 0 || r.RecoveryReadBytes != 0 {
		t.Fatalf("drain left replay work: %+v", r)
	}
	got := ing.Stats(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ing.Drain(ctx)
	if !reflect.DeepEqual(got, oracle) {
		t.Fatalf("killed+recovered daemon diverged:\n got %+v\nwant %+v", got, oracle)
	}
}

// TestProcessSigtermDrains checks the plain shutdown path: SIGTERM on
// an idle daemon exits 0 and leaves a directory that reopens with no
// replay.
func TestProcessSigtermDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dir := t.TempDir()
	c := startChild(t, dir)
	c.post(t, clickLine(1), clickLine(2))
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := c.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v", err)
	}
	ing, err := ingest.Open(childConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if r := ing.Recovery; r.ReplayedBatches != 0 || r.RestoredSeq != 1 {
		t.Fatalf("reopen after drain: %+v", r)
	}
	if st := ing.Stats(0); st.AckedRecords != 2 {
		t.Fatalf("stats after drain: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ing.Drain(ctx)
}
