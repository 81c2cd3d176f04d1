// Package sched is the durable multi-tenant job scheduler: org-scoped
// submit/cancel/list/get plus cron-style recurring jobs, executed on
// either backend (-backend=sim|real) under per-org concurrency
// limits, with every job, run, and limit persisted as records of its
// own internal/seglog log (log.go) so an acknowledged submit survives
// kill -9 and an interrupted run resumes — from checkpointed
// incremental reducer state (JobSpec.CheckpointEvery) — on the next
// boot.
package sched

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
)

// Duration marshals as a human-readable duration string ("2m30s") and
// accepts either that form or integer nanoseconds on the way in, so
// API payloads stay readable in curl examples.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*d = Duration(n)
	return nil
}

// JobSpec is the serializable description of one job: everything the
// executor needs to rebuild the engine.JobSpec deterministically.
// Zero values take the defaults noted per field (applied by
// Normalize); Seed makes the synthetic workload — and with it every
// answer-stable Report field on the sim backend — reproducible.
type JobSpec struct {
	// Org is the tenant (required); User attributes the submit.
	Org  string `json:"org"`
	User string `json:"user,omitempty"`
	// Name is a human label; defaults to the query name.
	Name string `json:"name,omitempty"`

	// Query is one of sessionization|clickcount|frequsers|pagefreq|trigram.
	Query string `json:"query"`
	// Platform is one of sm|hop|mr-hash|inc-hash|dinc-hash (default inc-hash).
	Platform string `json:"platform,omitempty"`
	// Backend is sim (discrete-event, default) or real (goroutines).
	Backend string `json:"backend,omitempty"`

	// DataBytes is the logical input size (default 1e9); ChunkBytes the
	// logical chunk size (default 64e6); Scale the physical:logical
	// ratio, e.g. "1/4096" (the default).
	DataBytes  float64 `json:"data_bytes,omitempty"`
	ChunkBytes float64 `json:"chunk_bytes,omitempty"`
	Scale      string  `json:"scale,omitempty"`

	// Nodes and Reducers shrink the paper cluster (0 = paper defaults).
	Nodes    int `json:"nodes,omitempty"`
	Reducers int `json:"reducers,omitempty"`

	// StateBytes sizes sessionization state (default 512); Users the
	// synthetic user population (default 400).
	StateBytes int   `json:"state_bytes,omitempty"`
	Users      int   `json:"users,omitempty"`
	Seed       int64 `json:"seed,omitempty"` // default 42

	// Workers sizes the real backend's task pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`

	// CheckpointEvery enables periodic reducer-state checkpoints —
	// required for an interrupted run to resume rather than restart.
	CheckpointEvery Duration `json:"checkpoint_every,omitempty"`
	// NodeCombine is off|on|auto (default off); AggFanIn the
	// hierarchical aggregation fan-in (0 = per-node only).
	NodeCombine string `json:"node_combine,omitempty"`
	AggFanIn    int    `json:"agg_fanin,omitempty"`

	// Cron makes the job recurring: "@every 5m" or a 5-field cron
	// expression ("*/10 * * * *"). Empty = one-shot.
	Cron string `json:"cron,omitempty"`
}

// Normalize fills defaulted fields in place.
func (s *JobSpec) Normalize() {
	if s.Platform == "" {
		s.Platform = "inc-hash"
	}
	if s.Backend == "" {
		s.Backend = "sim"
	}
	if s.DataBytes == 0 {
		s.DataBytes = 1e9
	}
	if s.ChunkBytes == 0 {
		s.ChunkBytes = 64e6
	}
	if s.Scale == "" {
		s.Scale = "1/4096"
	}
	if s.StateBytes == 0 {
		s.StateBytes = 512
	}
	if s.Users == 0 {
		s.Users = 400
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	if s.NodeCombine == "" {
		s.NodeCombine = "off"
	}
	if s.Name == "" {
		s.Name = s.Query
	}
}

// Validate reports the first problem with a normalized spec. Org,
// backend name and cron expression are the scheduler's own; everything
// else is valid exactly when the job builds, so an accepted spec cannot
// fail — or take the daemon down — for a reason known at submit.
func (s *JobSpec) Validate() error {
	if s.Org == "" {
		return fmt.Errorf("%w: org is required", ErrInvalidSpec)
	}
	if _, err := jobspec.ParseBackend(s.Backend); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	if s.Cron != "" {
		if _, err := ParseSchedule(s.Cron); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
		}
	}
	if _, _, err := BuildJob(*s); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidSpec, err)
	}
	return nil
}

// Job and run lifecycle states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"
	StateActive      = "active"      // recurring job between runs
	StatePending     = "pending"     // run admitted, not yet started
	StateInterrupted = "interrupted" // run cut down by a scheduler crash
)

// Job is the persisted job record.
type Job struct {
	ID      string  `json:"id"`
	Spec    JobSpec `json:"spec"`
	State   string  `json:"state"`
	Created string  `json:"created,omitempty"` // RFC 3339, informational
	Runs    int64   `json:"runs"`              // runs started so far
	LastRun uint64  `json:"last_run,omitempty"`
}

// Run is the persisted run record; Report is the run's profile
// (engine.Report.Profile: every counter and time, no trace), so GET
// /v1/jobs/{id}/runs returns every counter of every run.
type Run struct {
	Org     string         `json:"org"`
	JobID   string         `json:"job_id"`
	ID      uint64         `json:"id"` // strictly monotonic per org
	Attempt int            `json:"attempt"`
	Resumed bool           `json:"resumed,omitempty"`
	State   string         `json:"state"`
	Error   string         `json:"error,omitempty"`
	Report  *engine.Report `json:"report,omitempty"`
}

// Limits is the per-org admission policy.
type Limits struct {
	// MaxConcurrent caps simultaneously executing runs (default 2).
	MaxConcurrent int `json:"max_concurrent"`
	// MaxQueued caps admitted-but-unstarted runs; past it Submit sheds
	// with ErrOverloaded (default 64).
	MaxQueued int `json:"max_queued"`
}

// withDefaults fills l's unset (non-positive) fields from def.
func (l Limits) withDefaults(def Limits) Limits {
	if l.MaxConcurrent <= 0 {
		l.MaxConcurrent = def.MaxConcurrent
	}
	if l.MaxQueued <= 0 {
		l.MaxQueued = def.MaxQueued
	}
	return l
}
