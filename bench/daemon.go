package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ingest"
)

// buildDaemon compiles cmd/onepassd from the checkout into binPath.
// The go command's cache makes every build after the first a relink
// check, so this is cheap enough to be part of every set-up.
func buildDaemon(benchDir, binPath string) error {
	cmd := exec.Command("go", "build", "-o", binPath, "repro/cmd/onepassd")
	cmd.Dir = benchDir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build onepassd: %v\n%s", err, out)
	}
	return nil
}

// daemon is a running child onepassd.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	walDir  string
	stderr  bytes.Buffer
	control *http.Client // harness-side reads: /healthz, /metricsz
}

// startDaemon launches onepassd on fresh directories under runDir and
// returns once /healthz answers 200. With jobs set the scheduler API
// is served too.
func startDaemon(bin, runDir, query string, jobs bool) (*daemon, error) {
	d := &daemon{walDir: filepath.Join(runDir, "wal"), control: newConn()}
	addrFile := filepath.Join(runDir, "addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-wal-dir", d.walDir, "-query", query}
	if jobs {
		args = append(args, "-jobs-dir", filepath.Join(runDir, "jobs"))
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// The child must not outlive a harness that is killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.base = "http://" + string(addr)
			if resp, err := d.control.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.stop(syscall.SIGKILL)
	return nil, fmt.Errorf("onepassd not healthy after 20s: %s", d.stderr.String())
}

// stop signals the child and waits for it to end; it returns the exit
// error (nil for exit status 0). Stopping twice is harmless.
func (d *daemon) stop(sig syscall.Signal) error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	d.control.CloseIdleConnections()
	if err := d.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	return d.cmd.Wait()
}

// metricsz fetches the daemon's own counters.
func (d *daemon) metricsz() (ingest.MetricsSnapshot, error) {
	var snap ingest.MetricsSnapshot
	err := getJSON(d.control, d.base+"/metricsz", &snap)
	return snap, err
}

// newConn returns a client that owns exactly one keep-alive
// connection, so "n connections" in a workload means n of these.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// getJSON GETs url and decodes a 200 reply into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decodeReply(resp, http.StatusOK, v)
}

// postJSON POSTs body and decodes a reply with status want into v.
func postJSON(c *http.Client, url string, body []byte, want int, v any) error {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, want, v)
}

// decodeReply reads the whole reply, so the connection can be reused,
// and decodes it into v if its status is want.
func decodeReply(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	return json.Unmarshal(body, v)
}

// statusError is a reply with an unexpected HTTP status.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// httpCounts classifies request errors for serve.shed_429 and
// serve.http_errors.
type httpCounts struct{ shed, other int64 }

func (h *httpCounts) note(err error) {
	var se *statusError
	if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
		h.shed++
		return
	}
	h.other++
}

func (h *httpCounts) add(o httpCounts) {
	h.shed += o.shed
	h.other += o.other
}

func (h httpCounts) failed() int64 { return h.shed + h.other }

// procUsage is a reading of /proc/<pid>: CPU seconds consumed so far
// and the peak resident set.
type procUsage struct {
	cpuSeconds float64
	peakRSSMB  float64 // VmHWM: the process's high-water mark since it started
	rssMB      float64 // VmRSS: resident now
}

// userHZ is the kernel's clock-tick unit in /proc/<pid>/stat; Linux
// reports 100 on every architecture Go supports.
const userHZ = 100

func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	u.cpuSeconds = (utime + stime) / userHZ

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			u.peakRSSMB = kb / 1024
		}
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			u.rssMB = kb / 1024
		}
	}
	return u, nil
}

// procMetrics reports what the process under test consumed between two
// readings seconds apart, during which it took in records input records.
func procMetrics(res *result, p0, p1 procUsage, seconds, records float64) {
	cpu := p1.cpuSeconds - p0.cpuSeconds
	res.e2e.set("peak_rss_mb", p1.peakRSSMB, "MB")
	res.layer.set("proc.cpu_cores", cpu/seconds, "cores")
	res.layer.set("proc.cpu_us_per_record", 1e6*ratio(cpu, records), "us")
}

// watchRSS samples a process's resident set every 50 ms until the
// returned function is first called, which reports the highest reading:
// the peak over an interval, where VmHWM only knows the peak since start.
func watchRSS(pid int) (peakMB func() float64) {
	stop, done := make(chan struct{}), make(chan struct{})
	var peak float64
	go func() {
		defer close(done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if u, err := readProc(pid); err == nil && u.rssMB > peak {
				peak = u.rssMB
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() float64 {
		once.Do(func() { close(stop) })
		<-done
		return peak
	}
}
