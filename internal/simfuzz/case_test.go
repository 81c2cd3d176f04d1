// Package simfuzz is the randomized differential conformance harness
// for the five platforms: a seeded case generator (query × workload
// shape × cluster configuration × fault schedule), a differential
// runner, and a shrinker.
//
// Every generated case is executed on each applicable platform and
// checked for the three properties the paper's equivalence claim
// (§4: the hash platforms change cost, never answers) rests on:
//
//  1. answers match the sequential oracle (internal/reference) exactly,
//     up to each query's documented streaming semantics;
//  2. Reports agree across worker-pool sizes and with the wall-clock
//     run in every field engine.Report's tag table does not let move;
//  3. the Report's accounting identities hold (checksum overhead sums,
//     counters zero without their causes, well-formed spans).
//
// A failing case is shrunk to a minimal reproduction (drop fault
// events, halve the input, shrink the cluster, relax knobs toward
// defaults) and rendered as a ready-to-paste Go test plus a corpus
// JSON blob; minimized repros live in testdata/corpus/ and are
// replayed by TestCorpusReplay.
//
// Every file is a test file: the harness is driven by go test alone
// (README, "Conformance fuzzing") and no package imports it.
package simfuzz

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Scale is the physical:logical byte ratio every case runs at — the
// same 1/4096 the engine's own tests use, so a 64KB physical input
// simulates a 256MB logical job.
const Scale = 1.0 / 4096

// Fail is one injected task-failure entry: the task (map chunk index
// or reduce task index) fails Times attempts before succeeding.
type Fail struct {
	Index int `json:"index"`
	Times int `json:"times"`
}

// Case is one self-contained conformance scenario. It is plain data —
// JSON-serializable for the committed corpus — and deterministic: the
// same Case always builds the same input bytes, job specs, and fault
// schedule, so a verdict replays bit-for-bit.
type Case struct {
	Seed int64 `json:"seed"` // generator seed (provenance; replay key)

	// Query shape.
	Query     string `json:"query"` // clickcount pagefreq frequsers sessionization windowcount trigram
	Threshold int64  `json:"threshold,omitempty"`
	StateSize int    `json:"state_size,omitempty"`
	GapMS     int64  `json:"gap_ms,omitempty"`
	WindowMS  int64  `json:"window_ms,omitempty"`
	SlackMS   int64  `json:"slack_ms,omitempty"`
	// Poison wraps the query so Map panics on ~1% of records
	// (content-selected), run under a SkipBadRecords budget; the
	// oracle filters the same records.
	Poison bool `json:"poison,omitempty"`

	// Workload shape (click stream, or document corpus for trigram).
	DataSeed   int64   `json:"data_seed"`
	InputKB    int     `json:"input_kb"` // physical bytes generated
	ChunkKB    int     `json:"chunk_kb"` // the paper's chunk size C
	Users      int     `json:"users,omitempty"`
	UserSkew   float64 `json:"user_skew,omitempty"`
	URLs       int     `json:"urls,omitempty"`
	URLSkew    float64 `json:"url_skew,omitempty"`
	DurationMS int64   `json:"duration_ms,omitempty"`
	JitterMS   int64   `json:"jitter_ms,omitempty"`
	PadBytes   int     `json:"pad_bytes,omitempty"` // record-shape knob
	Vocab      int     `json:"vocab,omitempty"`
	WordSkew   float64 `json:"word_skew,omitempty"`
	DocWords   int     `json:"doc_words,omitempty"`

	// Cluster shape and Hadoop-level knobs.
	Nodes       int  `json:"nodes"`
	Cores       int  `json:"cores"`
	MapSlots    int  `json:"map_slots"`
	ReduceSlots int  `json:"reduce_slots"`
	R           int  `json:"r"`
	MergeFactor int  `json:"merge_factor"` // F
	MapBufKB    int  `json:"map_buf_kb"`
	ReduceBufKB int  `json:"reduce_buf_kb"`
	PageB       int  `json:"page_b"`
	SlotCache   int  `json:"slot_cache"`
	Replication int  `json:"replication"`
	SSD         bool `json:"ssd,omitempty"`
	Checksums   bool `json:"checksums,omitempty"`
	ProgressMS  int  `json:"progress_ms"`

	// Hints — sometimes deliberately wrong: hints steer memory
	// planning and must never change answers.
	Km           float64 `json:"km"`
	DistinctKeys int64   `json:"distinct_keys"`

	// Platform-specific job knobs.
	ScanEvery     int64   `json:"scan_every,omitempty"`     // DINC scavenger period
	SnapshotEvery float64 `json:"snapshot_every,omitempty"` // HOP snapshots

	// Fault schedule. The kill fires at a map-progress point and disk
	// damage is live in the map phase; heartbeat and checkpoint times are
	// stored as fractions of the platform's clean-run MapFinishTime
	// (measured by the runner), so the schedule stays meaningful as other
	// knobs shrink.
	MapFails      []Fail  `json:"map_fails,omitempty"`
	ReduceFails   []Fail  `json:"reduce_fails,omitempty"`
	FailPoint     float64 `json:"fail_point,omitempty"`
	KillNode      int     `json:"kill_node,omitempty"`
	KillFracPct   int     `json:"kill_frac_pct,omitempty"` // % of map tasks done at the kill; 0 = no kill
	SlowNode      int     `json:"slow_node,omitempty"`
	SlowFactor    float64 `json:"slow_factor,omitempty"` // ≤1 = none
	Speculate     bool    `json:"speculate,omitempty"`
	ShufErrPct    int     `json:"shuf_err_pct,omitempty"` // transient shuffle-error %
	IOErrRate     float64 `json:"io_err_rate,omitempty"`
	CorruptRate   float64 `json:"corrupt_rate,omitempty"`
	TornWrites    bool    `json:"torn_writes,omitempty"`
	DiskClasses   []int   `json:"disk_classes,omitempty"`
	CheckpointDiv int     `json:"checkpoint_div,omitempty"` // CheckpointEvery = MapFinishTime/div; 0 = off

	// Platforms this case runs differentially (platform name strings).
	Platforms []string `json:"platforms"`

	// Workers2 is the second worker-pool size for the cross-worker
	// determinism check (0 disables; the base runs are serial).
	Workers2 int `json:"workers2,omitempty"`

	// NodeCombine switches the in-node combine stage on
	// (engine.NodeCombineOn): combinable queries fold each node's map
	// outputs into one merged run before the shuffle. Answers must stay
	// oracle-identical on every platform and both backends, and under a
	// fault plan both backends combine exactly the chunks it keeps
	// (engine.JobFrame.Keep), so their combine counters are equal.
	NodeCombine bool `json:"node_combine,omitempty"`
}

// queryKinds lists the valid Query values.
var queryKinds = []string{"clickcount", "pagefreq", "frequsers", "sessionization", "windowcount", "trigram"}

// platformNames maps the engine's platform name strings back to
// Platform values.
var platformNames = map[string]engine.Platform{
	engine.SortMerge.String(): engine.SortMerge,
	engine.HOP.String():       engine.HOP,
	engine.MRHash.String():    engine.MRHash,
	engine.INCHash.String():   engine.INCHash,
	engine.DINCHash.String():  engine.DINCHash,
}

// AllPlatforms returns the five platform names in engine order.
func AllPlatforms() []string {
	return []string{
		engine.SortMerge.String(), engine.HOP.String(), engine.MRHash.String(),
		engine.INCHash.String(), engine.DINCHash.String(),
	}
}

// Clone deep-copies the case (slices included), so shrink candidates
// never alias the current best.
func (c Case) Clone() Case {
	d := c
	d.MapFails = append([]Fail(nil), c.MapFails...)
	d.ReduceFails = append([]Fail(nil), c.ReduceFails...)
	d.DiskClasses = append([]int(nil), c.DiskClasses...)
	d.Platforms = append([]string(nil), c.Platforms...)
	return d
}

// taskFaults reports whether per-task attempt failures are scheduled.
func (c *Case) taskFaults() bool { return len(c.MapFails) > 0 || len(c.ReduceFails) > 0 }

// diskFaults reports whether disk damage is scheduled.
func (c *Case) diskFaults() bool { return c.IOErrRate > 0 || c.CorruptRate > 0 || c.TornWrites }

// faulted reports whether the case injects anything at all — if so the
// runner performs a second, faulted run per platform (anchored on the
// clean run's MapFinishTime).
func (c *Case) faulted() bool {
	return c.taskFaults() || c.KillFracPct > 0 || c.SlowFactor > 1 || c.ShufErrPct > 0 ||
		c.diskFaults() || c.CheckpointDiv > 0
}

// hopCompatible reports whether the hop platform can run this case:
// HOP rejects task/node/shuffle fault injection and persistent disk
// damage (engine config rules), and the poison wrapper hides the
// interfaces its pipelining path needs.
func (c *Case) hopCompatible() bool {
	return !c.taskFaults() && c.KillFracPct == 0 && c.SlowFactor <= 1 && !c.Speculate &&
		c.ShufErrPct == 0 && c.CorruptRate == 0 && !c.TornWrites && c.IOErrRate <= 0.25 &&
		c.CheckpointDiv == 0 && !c.Poison
}

// Input builds the deterministic input for the case.
func (c *Case) Input() dfs.Input {
	if c.Query == "trigram" {
		return workload.NewDocCorpus(workload.DocSpec{
			PhysBytes: int64(c.InputKB) << 10,
			ChunkPhys: int64(c.ChunkKB) << 10,
			Seed:      c.DataSeed,
			Vocab:     c.Vocab,
			WordSkew:  c.WordSkew,
			DocWords:  c.DocWords,
		})
	}
	return workload.NewClickStream(workload.ClickSpec{
		PhysBytes: int64(c.InputKB) << 10,
		ChunkPhys: int64(c.ChunkKB) << 10,
		Seed:      c.DataSeed,
		Users:     c.Users,
		UserSkew:  c.UserSkew,
		URLs:      c.URLs,
		URLSkew:   c.URLSkew,
		Duration:  time.Duration(c.DurationMS) * time.Millisecond,
		Jitter:    time.Duration(c.JitterMS) * time.Millisecond,
		Pad:       c.PadBytes,
	})
}

// newQuery builds a fresh query instance. Query state (watermarks,
// scratch buffers) is per-run, so every engine.Run and every oracle
// evaluation gets its own instance. filter substitutes the
// quiet-filtering variant of the poison wrapper (the oracle's view of
// a quarantined run).
func (c *Case) newQuery(filter bool) mr.Query {
	var q mr.Query
	switch c.Query {
	case "clickcount":
		q = queries.NewClickCount()
	case "pagefreq":
		q = queries.NewPageFrequency()
	case "frequsers":
		q = queries.NewFrequentUsers(c.Threshold)
	case "sessionization":
		q = queries.NewSessionization(time.Duration(c.GapMS)*time.Millisecond, c.StateSize,
			time.Duration(c.SlackMS)*time.Millisecond)
	case "windowcount":
		q = queries.NewWindowCount(time.Duration(c.WindowMS)*time.Millisecond,
			time.Duration(c.SlackMS)*time.Millisecond)
	case "trigram":
		q = queries.NewTrigramCount(c.Threshold)
	default:
		panic(fmt.Sprintf("simfuzz: unknown query %q", c.Query))
	}
	if c.Poison {
		q = &poisonQuery{inner: q, filter: filter}
	}
	return q
}

// clusterConfig assembles the engine cluster for the case.
func (c *Case) clusterConfig(workers int) engine.ClusterConfig {
	return engine.ClusterConfig{
		Nodes:            c.Nodes,
		Cores:            c.Cores,
		MapSlots:         c.MapSlots,
		ReduceSlots:      c.ReduceSlots,
		R:                c.R,
		MergeFactor:      c.MergeFactor,
		MapBuffer:        int64(c.MapBufKB) << 10,
		ReduceBuffer:     int64(c.ReduceBufKB) << 10,
		Page:             int64(c.PageB),
		SlotCache:        c.SlotCache,
		SSDIntermediate:  c.SSD,
		Replication:      c.Replication,
		Model:            cost.Default(Scale),
		ProgressInterval: time.Duration(c.ProgressMS) * time.Millisecond,
		Parallelism:      workers,
		Checksums:        c.Checksums,
	}
}

// jobSpec assembles the complete submission for one platform, the same
// spec on both backends. withFaults includes the fault schedule, with
// heartbeat and checkpoint times anchored on mapFinish (the platform's
// clean-run MapFinishTime, measured by the runner first).
func (c *Case) jobSpec(pl engine.Platform, input dfs.Input, workers int, withFaults bool, mapFinish time.Duration) engine.JobSpec {
	spec := engine.JobSpec{
		Query:         c.newQuery(false),
		Input:         input,
		Platform:      pl,
		Cluster:       c.clusterConfig(workers),
		Hints:         mr.Hints{Km: c.Km, DistinctKeys: c.DistinctKeys},
		CollectOutput: true,
		ScanEvery:     c.ScanEvery,
		Seed:          c.DataSeed ^ 0x51f0,
	}
	if c.NodeCombine {
		spec.NodeCombine = engine.NodeCombineOn
	}
	if pl == engine.HOP {
		spec.SnapshotEvery = c.SnapshotEvery
	}
	if c.Poison {
		spec.SkipBadRecords = 1 << 20
	}
	if !withFaults {
		return spec
	}
	f := &spec.Faults
	f.FailPoint = c.FailPoint
	if len(c.MapFails) > 0 {
		f.MapFailures = map[int]int{}
		for _, mf := range c.MapFails {
			f.MapFailures[mf.Index] = mf.Times
		}
	}
	if len(c.ReduceFails) > 0 {
		f.ReduceFailures = map[int]int{}
		for _, rf := range c.ReduceFails {
			f.ReduceFailures[rf.Index] = rf.Times
		}
	}
	if c.KillFracPct > 0 {
		f.KillAtMapProgress = map[int]float64{c.KillNode: float64(c.KillFracPct) / 100}
		f.HeartbeatInterval = maxDur(mapFinish/100, time.Millisecond)
		f.HeartbeatTimeout = maxDur(mapFinish/25, 4*time.Millisecond)
	}
	if c.SlowFactor > 1 {
		f.SlowNodes = map[int]float64{c.SlowNode: c.SlowFactor}
		f.Speculate = c.Speculate
		if c.Speculate {
			f.HeartbeatInterval = maxDur(mapFinish/100, time.Millisecond)
		}
	}
	f.ShuffleErrorRate = float64(c.ShufErrPct) / 100
	if c.diskFaults() {
		f.Disk = engine.DiskFaultPlan{
			IOErrorRate: c.IOErrRate,
			CorruptRate: c.CorruptRate,
			TornWrites:  c.TornWrites,
		}
		for _, cl := range c.DiskClasses {
			f.Disk.Classes = append(f.Disk.Classes, storage.IOClass(cl))
		}
	}
	if c.CheckpointDiv > 0 {
		spec.CheckpointEvery = maxDur(mapFinish/time.Duration(c.CheckpointDiv), time.Millisecond)
	}
	return spec
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// poisonQuery wraps a query so Map panics on a deterministic,
// content-selected ~1% of records (timestamp digits "37" at positions
// 11–12) — the way real poison records behave. The filter variant
// skips the same records quietly, giving the oracle answer a
// quarantined run must reproduce. The wrapper deliberately hides every
// optional interface (Combiner, Incremental, ...): quarantine is a
// map-side mechanism and the generator restricts poison cases to the
// non-incremental platforms.
type poisonQuery struct {
	inner  mr.Query
	filter bool
}

func poisonedRecord(record []byte) bool {
	return len(record) >= 13 && record[11] == '3' && record[12] == '7'
}

func (q *poisonQuery) Name() string { return q.inner.Name() }

func (q *poisonQuery) Map(record []byte, emit func(k, v []byte)) {
	if poisonedRecord(record) {
		if q.filter {
			return
		}
		panic("simfuzz: poison record")
	}
	q.inner.Map(record, emit)
}

func (q *poisonQuery) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	q.inner.Reduce(key, values, out)
}

// Normalize clamps the case into the engine's validity envelope,
// resolving cross-field constraints (torn writes need a kill and
// checksums, kills need a surviving node, HOP rejects fault plans,
// ...). Gen emits normalized cases; Shrink re-normalizes every
// candidate so simplification steps cannot produce a spec the engine
// would reject.
func (c *Case) Normalize() {
	valid := false
	for _, k := range queryKinds {
		if c.Query == k {
			valid = true
			break
		}
	}
	if !valid {
		c.Query = "clickcount"
	}

	// Workload.
	if c.InputKB < 4 {
		c.InputKB = 4
	}
	if c.InputKB > 1024 {
		c.InputKB = 1024
	}
	if c.ChunkKB < 1 {
		c.ChunkKB = 1
	}
	if c.ChunkKB > c.InputKB {
		c.ChunkKB = c.InputKB
	}
	if c.Query == "trigram" {
		if c.Vocab < 3 {
			c.Vocab = 200
		}
		if c.WordSkew <= 1 {
			c.WordSkew = 1.1
		}
		if c.DocWords < 3 {
			c.DocWords = 8
		}
	} else {
		if c.Users < 2 {
			c.Users = 200
		}
		if c.UserSkew <= 1 {
			c.UserSkew = 1.2
		}
		if c.URLs < 2 {
			c.URLs = 50
		}
		if c.URLSkew <= 1 {
			c.URLSkew = 1.3
		}
		if c.DurationMS < 1000 {
			c.DurationMS = int64(time.Hour / time.Millisecond)
		}
		if c.JitterMS < 0 {
			c.JitterMS = 0
		}
		if c.PadBytes < 0 {
			c.PadBytes = 0
		}
		if c.PadBytes > 256 {
			c.PadBytes = 256
		}
	}

	// Query parameters.
	switch c.Query {
	case "frequsers", "trigram":
		if c.Threshold < 1 {
			c.Threshold = 2
		}
	case "sessionization":
		if c.StateSize < 64 {
			c.StateSize = 512
		}
		if c.GapMS < 1 {
			c.GapMS = int64(5 * time.Minute / time.Millisecond)
		}
	case "windowcount":
		if c.WindowMS < 1 {
			c.WindowMS = int64(5 * time.Minute / time.Millisecond)
		}
	}
	switch c.Query {
	case "sessionization", "windowcount":
		// Slack must exceed the workload's disorder bound or answers
		// legitimately drift from the oracle.
		if c.SlackMS <= c.JitterMS {
			c.SlackMS = c.JitterMS + 1000
		}
	}
	if c.Poison {
		// Poison needs click-style records and the non-incremental
		// quarantine path.
		switch c.Query {
		case "clickcount", "pagefreq", "frequsers":
		default:
			c.Poison = false
		}
	}

	// Cluster.
	c.Nodes = clampInt(c.Nodes, 1, 8)
	c.Cores = clampInt(c.Cores, 1, 4)
	c.MapSlots = clampInt(c.MapSlots, 1, 4)
	c.ReduceSlots = clampInt(c.ReduceSlots, 1, 4)
	c.R = clampInt(c.R, 1, 4)
	if c.MergeFactor < 2 {
		c.MergeFactor = 2
	}
	if c.MapBufKB < 1 {
		c.MapBufKB = 1
	}
	if c.ReduceBufKB < 1 {
		c.ReduceBufKB = 1
	}
	c.PageB = clampInt(c.PageB, 64, 1<<16)
	c.SlotCache = clampInt(c.SlotCache, 1, 64)
	c.Replication = clampInt(c.Replication, 1, c.Nodes)
	c.ProgressMS = clampInt(c.ProgressMS, 200, 60_000)
	if c.Km <= 0 {
		c.Km = 0.2
	}
	if c.Km > 16 {
		c.Km = 16
	}
	if c.DistinctKeys < 1 {
		c.DistinctKeys = 1024
	}
	if c.ScanEvery < 0 {
		c.ScanEvery = 0
	}
	if c.SnapshotEvery < 0 || c.SnapshotEvery >= 1 {
		c.SnapshotEvery = 0
	}

	// Faults.
	if c.Poison {
		// Keep the quarantine and fault-recovery matrices separate:
		// a poison case is otherwise clean.
		c.clearFaults()
	}
	if c.FailPoint < 0 {
		c.FailPoint = 0
	}
	if c.FailPoint > 1 {
		c.FailPoint = 1
	}
	if c.KillFracPct < 0 {
		c.KillFracPct = 0
	}
	if c.KillFracPct > 0 {
		if c.Nodes < 2 {
			c.Nodes = 2
		}
		c.KillFracPct = clampInt(c.KillFracPct, 1, 95)
		c.KillNode = modInt(c.KillNode, c.Nodes)
	} else {
		c.KillNode = 0
		c.TornWrites = false // torn tails surface at node kills
		c.CheckpointDiv = 0  // checkpoints are generated only alongside kills
	}
	if c.SlowFactor <= 1 {
		c.SlowFactor = 0
		c.SlowNode = 0
		c.Speculate = false
	} else {
		if c.SlowFactor > 8 {
			c.SlowFactor = 8
		}
		c.SlowNode = modInt(c.SlowNode, c.Nodes)
	}
	c.ShufErrPct = clampInt(c.ShufErrPct, 0, 50)
	c.IOErrRate = clampRate(c.IOErrRate)
	c.CorruptRate = clampRate(c.CorruptRate)
	if c.CorruptRate > 0 || c.TornWrites {
		c.Checksums = true
	}
	c.CheckpointDiv = clampInt(c.CheckpointDiv, 0, 64)
	if len(c.DiskClasses) > 0 {
		seen := map[int]bool{}
		var classes []int
		for _, cl := range c.DiskClasses {
			cl = modInt(cl, int(storage.NumIOClasses))
			if !seen[cl] {
				seen[cl] = true
				classes = append(classes, cl)
			}
		}
		c.DiskClasses = classes
	}
	if c.IOErrRate == 0 && c.CorruptRate == 0 && !c.TornWrites {
		c.DiskClasses = nil
	}

	// Task-failure indices must land on real tasks.
	chunks := c.Input().NumChunks()
	c.MapFails = normalizeFails(c.MapFails, chunks)
	c.ReduceFails = normalizeFails(c.ReduceFails, c.R*c.Nodes)
	if len(c.MapFails) == 0 && len(c.ReduceFails) == 0 {
		c.FailPoint = 0 // meaningful only with scheduled task failures
	}

	// Platforms: known names, deduped, HOP only when compatible.
	seen := map[string]bool{}
	var pls []string
	for _, name := range c.Platforms {
		if _, ok := platformNames[name]; !ok || seen[name] {
			continue
		}
		if name == engine.HOP.String() && !c.hopCompatible() {
			continue
		}
		if c.Poison && name != engine.SortMerge.String() && name != engine.MRHash.String() {
			continue
		}
		seen[name] = true
		pls = append(pls, name)
	}
	if len(pls) == 0 {
		pls = []string{engine.SortMerge.String()}
	}
	c.Platforms = pls

	if c.Workers2 < 0 {
		c.Workers2 = 0
	}
	if c.Workers2 == 1 {
		c.Workers2 = 2
	}
	if c.Workers2 > 8 {
		c.Workers2 = 8
	}
}

// clearFaults removes the whole fault schedule.
func (c *Case) clearFaults() {
	c.MapFails = nil
	c.ReduceFails = nil
	c.FailPoint = 0
	c.KillNode, c.KillFracPct = 0, 0
	c.SlowNode, c.SlowFactor = 0, 0
	c.Speculate = false
	c.ShufErrPct = 0
	c.IOErrRate, c.CorruptRate = 0, 0
	c.TornWrites = false
	c.DiskClasses = nil
	c.CheckpointDiv = 0
}

// normalizeFails clamps indices into [0,n), merges duplicates (max
// times wins), and drops non-positive counts.
func normalizeFails(fails []Fail, n int) []Fail {
	if len(fails) == 0 || n <= 0 {
		return nil
	}
	times := map[int]int{}
	var order []int
	for _, f := range fails {
		if f.Times < 1 {
			continue
		}
		if f.Times > 3 {
			f.Times = 3
		}
		idx := modInt(f.Index, n)
		if _, ok := times[idx]; !ok {
			order = append(order, idx)
		}
		if f.Times > times[idx] {
			times[idx] = f.Times
		}
	}
	var out []Fail
	for _, idx := range order {
		out = append(out, Fail{Index: idx, Times: times[idx]})
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func modInt(v, n int) int {
	v %= n
	if v < 0 {
		v += n
	}
	return v
}

func clampRate(r float64) float64 {
	if r < 0 {
		return 0
	}
	if r > 0.5 {
		return 0.5
	}
	return r
}
