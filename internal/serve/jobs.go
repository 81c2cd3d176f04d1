package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/sched"
)

// MaxJobBodyBytes bounds one job-submission or limits request body.
const MaxJobBodyBytes = 1 << 20

// registerJobs wires the multi-tenant job API around an open
// Scheduler:
//
//	POST   /v1/jobs              submit a JobSpec (one-shot or cron)
//	GET    /v1/jobs[?org=]       list jobs
//	GET    /v1/jobs/{id}         one job record
//	DELETE /v1/jobs/{id}         cancel (idempotent on terminal jobs)
//	GET    /v1/jobs/{id}/runs    run history, each run's Report a profile (no spans, samples or progress)
//	GET    /v1/orgs/{org}/limits admission policy
//	PUT    /v1/orgs/{org}/limits set admission policy
//
// Error mapping matches the ingestion endpoints: overload is 429 with
// Retry-After, draining/closed is 503, unknown ids are 404, a spec
// that fails validation is 400, and a submit the job store could not
// persist is 503, as a wedged WAL is on /v1/events.
func registerJobs(mux *http.ServeMux, s *sched.Scheduler) {
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec sched.JobSpec
		if !readJSON(w, r, &spec) {
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			// Not the spec's fault, so the job store's (wedged, closed).
			jobErr(w, err, http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusCreated, job)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("org")))
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Get(r.PathValue("id"))
		if err != nil {
			jobErr(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			jobErr(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/runs", func(w http.ResponseWriter, r *http.Request) {
		runs, err := s.Runs(r.PathValue("id"))
		if err != nil {
			jobErr(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, runs)
	})
	mux.HandleFunc("GET /v1/orgs/{org}/limits", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Limits(r.PathValue("org")))
	})
	mux.HandleFunc("PUT /v1/orgs/{org}/limits", func(w http.ResponseWriter, r *http.Request) {
		var l sched.Limits
		if !readJSON(w, r, &l) {
			return
		}
		if err := s.SetLimits(r.PathValue("org"), l); err != nil {
			jobErr(w, err, http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, s.Limits(r.PathValue("org")))
	})
}

// readJSON decodes a bounded JSON body, rejecting unknown fields so
// typos in spec keys fail loudly instead of silently defaulting.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxJobBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// jobErr maps scheduler errors onto HTTP statuses; fallback covers
// call-specific defaults (503 for a submit, 500 otherwise).
func jobErr(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, sched.ErrInvalidSpec):
		http.Error(w, err.Error(), http.StatusBadRequest)
	case errors.Is(err, sched.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, sched.ErrDraining), errors.Is(err, sched.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, sched.ErrNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	default:
		http.Error(w, err.Error(), fallback)
	}
}
