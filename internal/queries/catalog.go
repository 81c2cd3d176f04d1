package queries

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/mr"
	"repro/internal/workload"
)

// Names lists the catalogue's queries, in the order tools print them.
var Names = []string{"sessionization", "clickcount", "frequsers", "pagefreq", "trigram"}

// Sizing is what a catalogue query needs to know about the run it is
// resolved for.
type Sizing struct {
	StateBytes int     // sessionization's per-user state buffer
	Users      int     // distinct users in the click stream
	DataBytes  float64 // logical input size
	ChunkBytes float64 // logical chunk size
	Seed       int64
}

// Plan is a resolved catalogue entry: the query factory (the real
// backend needs a fresh instance per task, the simulation calls it
// once), the workload hints, and the synthetic input the query reads.
type Plan struct {
	NewQuery func() mr.Query
	Hints    mr.Hints
	Input    dfs.Input
}

// Factory maps a query name to its constructor, with the catalogue's
// default parameters; stateBytes is sessionization's per-user state
// buffer. The one name → constructor table: Resolve and the ingestion
// daemon (ingest.StandardQuery) both build through it.
func Factory(name string, stateBytes int) (func() mr.Query, error) {
	switch name {
	case "sessionization":
		if stateBytes < minSessionState {
			return nil, fmt.Errorf("sessionization state of %d bytes cannot hold a click (want ≥ %d)", stateBytes, minSessionState)
		}
		return func() mr.Query {
			return NewSessionization(5*time.Minute, stateBytes, 5*time.Second)
		}, nil
	case "clickcount":
		return NewClickCount, nil
	case "frequsers":
		return func() mr.Query { return NewFrequentUsers(50) }, nil
	case "pagefreq":
		return NewPageFrequency, nil
	case "trigram":
		return func() mr.Query { return NewTrigramCount(1000) }, nil
	}
	return nil, fmt.Errorf("unknown query %q (want %s)", name, strings.Join(Names, "|"))
}

// Resolve maps a query name to its plan under cost model m. Every tool
// that runs a named query builds it here, so the same name, sizing and
// seed mean the same job everywhere.
func Resolve(name string, z Sizing, m cost.Model) (Plan, error) {
	// The hints default to a count per user (the combiner leaves ~1 % of
	// the map input); the cases below say where a query differs.
	p := Plan{Hints: mr.Hints{Km: 0.01, DistinctKeys: int64(z.Users)}}
	var err error
	if p.NewQuery, err = Factory(name, z.StateBytes); err != nil {
		return p, err
	}
	// The generators need a physical byte of data and of chunk, and a
	// user pool (the caller's: a request body, on the daemon) that is not
	// empty and that the click record's id can hold; below 2^62 the
	// conversions are defined.
	phys, chunk := m.ScaleBytes(int64(z.DataBytes)), m.ScaleBytes(int64(z.ChunkBytes))
	if !(z.DataBytes < 1<<62 && z.ChunkBytes < 1<<62) || phys < 1 || chunk < 1 {
		return p, fmt.Errorf("data size %g and chunk size %g must each scale to at least one physical byte (scale %g) and stay below 2^62",
			z.DataBytes, z.ChunkBytes, m.Scale)
	}
	if z.Users < 1 || z.Users > workload.MaxUsers {
		return p, fmt.Errorf("user pool of %d is outside [1, %d], what a click record's 7-digit user id holds", z.Users, workload.MaxUsers)
	}
	switch name {
	case "sessionization":
		p.Hints.Km = 1.15
	case "pagefreq":
		p.Hints.DistinctKeys = 20_000
	case "trigram":
		p.Hints.Km = 3
		p.Hints.DistinctKeys = 12_000_000
		// A small, sharply skewed vocabulary: enough repeated trigrams
		// to clear the threshold at test scales.
		doc := workload.DefaultDocSpec(phys, chunk, z.Seed)
		doc.Vocab, doc.WordSkew, doc.WordV = 5_000, 1.6, 4
		p.Input = workload.NewDocCorpus(doc)
	}
	// Kr (reduce output:input ratio) feeds the node-combine auto gate:
	// the count-style outputs here are ~24-byte rows, one per distinct
	// key, so Kr ≈ 24·K / D. Sessionization never combines (no combine
	// function), so the estimate is harmless there.
	if p.Hints.DistinctKeys > 0 {
		p.Hints.Kr = 24 * float64(p.Hints.DistinctKeys) / z.DataBytes
	}
	if p.Input == nil {
		click := workload.DefaultClickSpec(phys, chunk, z.Seed)
		click.Users = z.Users
		p.Input = workload.NewClickStream(click)
	}
	return p, nil
}
