package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"repro/internal/queries"
)

// FuzzBuildJob holds "a spec that validates is a spec that builds" over
// arbitrary POST /v1/jobs bodies, decoded the way serve decodes them:
// BuildJob never panics; an accepted spec builds, and what it builds
// passes the engine's own validation with a query the factory makes; a
// spec rejected for anything but the scheduler's own three fields (org,
// backend, cron) does not build either. Seeded with the bodies the
// scheduler used to acknowledge and then die on or fail late
// (testdata/rejected_specs.jsonl, which serve's
// TestJobsRejectedSpecsPersistNothing posts) and a full spec per query.
func FuzzBuildJob(f *testing.F) {
	rejected, err := os.ReadFile("testdata/rejected_specs.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, body := range bytes.Split(bytes.TrimSpace(rejected), []byte("\n")) {
		f.Add(body)
	}
	for _, q := range queries.Names {
		f.Add([]byte(fmt.Sprintf(`{"org":"acme","user":"ops","query":%q,"platform":"dinc-hash","backend":"real",
			"data_bytes":8e8,"chunk_bytes":48e6,"scale":"1/4096","nodes":3,"reducers":2,"state_bytes":256,"users":700,
			"seed":7,"workers":2,"checkpoint_every":"5s","node_combine":"auto","cron":"@every 5m"}`, q)))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		spec.Normalize()
		verr := spec.Validate()
		job, newQuery, berr := BuildJob(spec)
		switch {
		case verr == nil && berr != nil:
			t.Fatalf("accepted spec does not build: %v", berr)
		case verr == nil:
			job.Query = newQuery()
			if err := job.Validate(); err != nil {
				t.Fatalf("accepted spec builds a job the engine refuses: %v", err)
			}
		case berr == nil:
			spec.Org, spec.Backend, spec.Cron = "acme", "sim", ""
			if err := spec.Validate(); err != nil {
				t.Fatalf("rejected (%v) for a reason the builder does not share: it built", err)
			}
		}
	})
}
