// Package serve is the HTTP face of onepassd: batch ingestion on
// POST /v1/events (newline-delimited records, acknowledged only after
// the WAL fsync), current answers with their coverage estimate γ on
// GET /v1/stats, the multi-tenant job API under /v1/jobs and
// /v1/orgs/{org}/limits (when a scheduler is attached), liveness on
// /healthz, and counters on /metricsz. Overload surfaces as 429 with
// Retry-After; shutdown is a graceful drain triggered by SIGTERM.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/ingest"
	"repro/internal/sched"
)

// MaxBodyBytes bounds one POST /v1/events request body.
const MaxBodyBytes = 8 << 20

// defaultStatsLimit caps /v1/stats answers unless ?limit= overrides.
const defaultStatsLimit = 100

// Options configures Run.
type Options struct {
	// Addr is the listen address (host:port; port 0 picks one).
	Addr string
	// AddrFile, if set, receives the bound address once listening —
	// how out-of-process tests and scripts discover a :0 port.
	AddrFile string
	// DrainTimeout bounds graceful shutdown: in-flight requests plus
	// the ingester drain (final fold, checkpoint, seal) and, when a
	// scheduler is attached, the scheduler drain (running jobs finish).
	DrainTimeout time.Duration
	// Jobs, when non-nil, attaches the durable job scheduler: the
	// /v1/jobs and /v1/orgs/{org}/limits endpoints are served and the
	// scheduler is drained and closed on shutdown.
	Jobs *sched.Scheduler
}

// NewHandler wires the service endpoints around an open Ingester and,
// when jobs is non-nil, the job scheduler API.
func NewHandler(ing *ingest.Ingester, jobs *sched.Scheduler) http.Handler {
	mux := http.NewServeMux()
	if jobs != nil {
		registerJobs(mux, jobs)
	}
	mux.HandleFunc("/v1/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(ing, w, r)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		handleStats(ing, w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := ing.Healthy(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		m := metricsz{MetricsSnapshot: ing.Metrics()}
		if jobs != nil {
			jm := jobs.Metrics()
			m.Jobs = &jm
		}
		writeJSON(w, http.StatusOK, m)
	})
	return mux
}

// metricsz is the /metricsz body: the ingester's counters at the top
// level and, with a scheduler attached, its counters and the byte
// budget's under "jobs".
type metricsz struct {
	ingest.MetricsSnapshot
	Jobs *sched.Metrics `json:"jobs,omitempty"`
}

// ackResponse is the POST /v1/events success body: the durable batch
// sequence number clients key retries on.
type ackResponse struct {
	Seq     int64 `json:"seq"`
	Records int   `json:"records"`
}

func handleEvents(ing *ingest.Ingester, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	records := splitRecords(body)
	seq, err := ing.Ingest(records)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, ackResponse{Seq: seq, Records: len(records)})
	case errors.Is(err, ingest.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ingest.ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ingest.ErrBadRecord), errors.Is(err, ingest.ErrEmptyBatch):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		// Wedged (WAL failure): nothing was acknowledged.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}

// splitRecords turns a newline-delimited body into records, ignoring
// a trailing newline. Interior empty lines are kept (and rejected by
// validation) so clients learn about malformed payloads.
func splitRecords(body []byte) [][]byte {
	body = bytes.TrimSuffix(body, []byte("\n"))
	if len(body) == 0 {
		return nil
	}
	return bytes.Split(body, []byte("\n"))
}

func handleStats(ing *ingest.Ingester, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	limit := defaultStatsLimit
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad limit %q: %v", v, err), http.StatusBadRequest)
			return
		}
		limit = n
	}
	writeJSON(w, http.StatusOK, ing.Stats(limit))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Run listens on opts.Addr and serves until the context is canceled
// or SIGTERM/SIGINT arrives, then drains: stop accepting requests,
// finish in-flight ones, and drain the ingester (final fold,
// checkpoint, segment seal) under opts.DrainTimeout. A nil error
// means every acknowledged batch is folded and durable.
func Run(ctx context.Context, ing *ingest.Ingester, opts Options) error {
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	if opts.AddrFile != "" {
		if err := os.WriteFile(opts.AddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	srv := &http.Server{Handler: NewHandler(ing, opts.Jobs)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // listener failed before any shutdown signal
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second SIGTERM kills
	drainCtx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		drainJobs(drainCtx, opts.Jobs)
		ing.Drain(drainCtx) // still try to persist what was acknowledged
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := drainJobs(drainCtx, opts.Jobs); err != nil {
		ing.Drain(drainCtx)
		return err
	}
	return ing.Drain(drainCtx)
}

// drainJobs refuses new submissions, waits for running jobs under the
// drain budget, and closes the job store. Interrupted runs (budget
// exceeded) are persisted as such and resume on the next boot.
func drainJobs(ctx context.Context, s *sched.Scheduler) error {
	if s == nil {
		return nil
	}
	if err := s.Drain(ctx); err != nil {
		s.Close() // running contexts cancel; runs persist as interrupted
		return fmt.Errorf("serve: job drain: %w", err)
	}
	return s.Close()
}
