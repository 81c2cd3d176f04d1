// Package engine runs MapReduce jobs on a simulated cluster: N nodes
// with cores, map/reduce task slots, a disk (or disk+SSD) and a NIC
// each, executing real data through the sort-merge baseline
// (internal/sortmerge), the MapReduce Online-style pipelining variant,
// or the paper's hash platforms (internal/core), while a metrics
// sampler records progress, task timelines, and CPU/iowait series.
//
// The engine is the discrete-event substrate: jobs run inside a
// deterministic simulation (internal/sim), where map tasks are
// processes competing for map slots, reducers shuffle from completed
// mappers (from the mapper's memory if fetched promptly, from its disk
// otherwise — reproducing the §3.2 two-wave reducer effect), and every
// byte moved charges virtual time under the calibrated cost model
// (internal/cost). The data paths themselves are written against the
// substrate interfaces (internal/substrate) and are shared with the
// wall-clock backend (internal/realexec), which runs the same code on
// real goroutines; JobSpec, Report, the platform constants and the
// task bodies (task_map.go, task_reduce.go: what one map or reduce
// attempt computes and charges, free of internal/sim) are common to
// both, and maptask.go / reducetask.go here are only the simulation's
// driver over those bodies. Fault injection and checkpointed recovery
// run on both substrates under one interpretation (task_faults.go): a
// node dies once chunks 0…K-1 have completed (FaultPlan.KillAtMapProgress)
// and placement, lost outputs, backups and combine scope follow from
// the spec alone; shuffle fetches roll seeded transient errors
// (ShuffleErrorRate), and disk damage (FaultPlan.Disk) is live during
// the map phase only (on the real backend, in primary map attempts).
// Here the heartbeat detector models detection delay in virtual time.
// Only the virtual-time schedule (progress curves, timelines) remains
// simulation-only.
package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/dfs"
	"repro/internal/model"
	"repro/internal/mr"
	"repro/internal/storage"
)

// Platform selects the data path.
type Platform int

// Platforms. Stock versus optimized Hadoop is a parameter choice
// (merge factor / chunk size), not a separate platform.
const (
	SortMerge Platform = iota // Hadoop's sort-merge (§2.2)
	HOP                       // MapReduce Online-style pipelining (§2.2, §3.3)
	MRHash                    // basic hash technique (§4.1)
	INCHash                   // incremental hash (§4.2)
	DINCHash                  // dynamic incremental hash (§4.3)
)

// String returns the platform name as used in the paper's tables.
func (pl Platform) String() string {
	switch pl {
	case SortMerge:
		return "1-pass-sm"
	case HOP:
		return "hop"
	case MRHash:
		return "mr-hash"
	case INCHash:
		return "inc-hash"
	case DINCHash:
		return "dinc-hash"
	}
	return "platform?"
}

// ParsePlatform parses a platform's command-line and job-spec
// spelling (case-insensitive, with and without the hyphen).
func ParsePlatform(s string) (Platform, error) {
	switch strings.ToLower(s) {
	case "sm", "sortmerge", "1-pass-sm":
		return SortMerge, nil
	case "hop":
		return HOP, nil
	case "mr-hash", "mrhash":
		return MRHash, nil
	case "inc-hash", "inchash":
		return INCHash, nil
	case "dinc-hash", "dinchash":
		return DINCHash, nil
	}
	return 0, fmt.Errorf("unknown platform %q", s)
}

// Incremental reports whether the platform applies init() map-side and
// processes key states (INC-hash and DINC-hash).
func (pl Platform) Incremental() bool { return pl == INCHash || pl == DINCHash }

// ClusterConfig describes the cluster and the Hadoop-level parameters,
// on either substrate: the simulation models N such nodes, the
// wall-clock backend uses the same geometry to size tasks, reducers,
// and buffers. All byte sizes are physical (already scaled); use
// PaperCluster to get the paper's testbed at a chosen scale.
type ClusterConfig struct {
	Nodes       int // N
	Cores       int // per node
	MapSlots    int // per node
	ReduceSlots int // per node
	R           int // reduce tasks per node (reducers = R × Nodes)

	MergeFactor  int   // F
	MapBuffer    int64 // B_m per map task
	ReduceBuffer int64 // B_r per reduce task
	Page         int64 // bucket write-buffer page
	ReadSegment  int64 // disk read request granularity

	// SlotCache is how many completed map outputs stay in a node's
	// memory for free shuffle fetches; older outputs are served from
	// disk (the §3.2(3) second-wave effect).
	SlotCache int

	// SSDIntermediate routes intermediate data (spills, map output) to
	// the SSD, as in the Fig 2(d) experiment.
	SSDIntermediate bool

	Replication int // DFS replication factor

	Model            cost.Model
	ProgressInterval time.Duration // metrics sampling period (virtual)

	// Parallelism is the number of threads a job computes on. On the
	// DES they run pure compute (chunk generation, map functions, the
	// sort-merge sorts, merges and final reduce) while the simulation
	// schedules one process at a time: the kernel's own thread, which
	// computes whenever a process waits, plus Parallelism−1 pool
	// goroutines. On the real backend it counts map goroutines and, apart,
	// reduce slots; 0 means GOMAXPROCS. Results are bit-for-bit identical
	// for any value — this knob trades wall-clock time only, never virtual time.
	Parallelism int

	// Checksums enables end-to-end CRC32C framing of every persisted
	// stream (map spills, map outputs, reduce buckets/spills,
	// checkpoints, shuffle payloads): writes record frame checksums,
	// reads verify them, and the framing bytes are charged through the
	// cost model and reported per I/O class
	// (Report.ChecksumOverheadBytes). Off (the default), no metadata
	// is kept and no byte or nanosecond of overhead is paid.
	Checksums bool
}

// PaperCluster returns the paper's evaluation cluster (§2.3): 10 nodes
// with 4 cores, 4 map + 4 reduce slots, R=4, ~140MB map buffers and
// ~500MB reduce buffers, scaled by the model's scale factor.
func PaperCluster(m cost.Model) ClusterConfig {
	return ClusterConfig{
		Nodes:        10,
		Cores:        4,
		MapSlots:     4,
		ReduceSlots:  4,
		R:            4,
		MergeFactor:  10, // Hadoop's io.sort.factor default
		MapBuffer:    m.ScaleBytes(140e6),
		ReduceBuffer: m.ScaleBytes(500e6),
		Page:         m.ScaleBytes(1e6),
		ReadSegment:  m.ScaleBytes(32e6),
		// A mapper's recent outputs stay in its OS page cache; with
		// 8GB nodes and 64MB outputs roughly 3GB (~48 outputs) is
		// realistically warm. Reducers fetching promptly hit memory
		// ("in most cases, this data transfer happens soon after a
		// mapper completes", §2.2); stragglers and second-wave
		// reducers hit disk.
		SlotCache:        48,
		Replication:      3,
		Model:            m,
		ProgressInterval: 20 * time.Second,
	}
}

// JobSpec is a complete job submission, accepted by both substrates
// (engine.Run and internal/realexec). The wall-clock backend ignores
// Query — it builds a fresh instance per task from a factory. Fault
// plans and CheckpointEvery run on both substrates.
type JobSpec struct {
	Query    mr.Query
	Input    dfs.Input
	Platform Platform
	Cluster  ClusterConfig
	Hints    mr.Hints

	// CollectOutput retains all output records in the report (tests
	// and small runs only).
	CollectOutput bool

	// CoverageThreshold is DINC-hash's φ for approximate early
	// answers (0 disables).
	CoverageThreshold float64

	// ScanEvery triggers DINC-hash's scavenger pass every that many
	// tuples per reducer (0 disables).
	ScanEvery int64

	// SnapshotEvery, on the HOP platform, makes reducers emit an
	// approximate snapshot each time the map progress crosses a
	// multiple of this fraction (e.g. 0.25 → snapshots at 25%, 50%,
	// 75%), by repeating the merge over everything received so far —
	// the MapReduce Online extension whose I/O overhead §3.3(4)
	// criticizes. 0 disables snapshots.
	SnapshotEvery float64

	// Faults injects task failures, node crashes, and stragglers to
	// exercise the fault-tolerance path ("the sorted map output is
	// written to disk for fault tolerance", §2.2): a failed map attempt
	// burns its slot time and discards its output, and the task is
	// re-executed. The job's answers must be unaffected.
	Faults FaultPlan

	// CheckpointEvery makes incremental reducers (INC-hash, DINC-hash)
	// checkpoint their key→state table / FREQUENT summary plus bucket
	// deltas every that much time on the driver's clock — virtual time
	// on the DES, the attempt's virtual CPU ledger on the wall-clock
	// backend — so a reducer restarted after a node loss resumes from
	// the last checkpoint and replays only the suffix of its input —
	// versus sort-merge's restart-from-scratch. 0 disables
	// checkpointing.
	CheckpointEvery time.Duration

	// SkipBadRecords is the bad-record quarantine budget per map task
	// (Hadoop's skip mode): a record whose Map call panics is skipped
	// and counted (Report.QuarantinedRecords) instead of failing the
	// job, up to this many records per task. 0 (the default) disables
	// quarantine — a poison record fails the job loudly.
	SkipBadRecords int64

	// NodeCombine selects the in-node combine stage (Lee et al.'s
	// in-node combiner): every local map task's output on a node is
	// absorbed into one per-node hash table and a single merged,
	// partitioned run per node enters the shuffle. It applies only to
	// combinable queries (mr.Combiner) on the non-pipelining platforms;
	// elsewhere NodeCombineOn and NodeCombineAuto are exact no-ops.
	// Answers are bit-identical to the per-task path; shuffle volume,
	// CPU, and time change, and the savings are recorded in
	// Report.NodeCombine* / ShuffleBytesSaved.
	NodeCombine NodeCombineMode

	// AggFanIn enables tree/rack-style hierarchical aggregation on top
	// of node combining: nodes are grouped F-way by index, each group's
	// first node folds the group's combined runs into one before the
	// final reducers see anything. 0 or 1 disables the tree. Requires
	// NodeCombine on (or auto). Under a fault plan the tree folds only
	// the chunks the plan keeps (JobFrame.Keep), none of them on a node
	// that dies, so no mid-tree loss can occur.
	AggFanIn int

	Seed int64
}

// NodeCombineMode selects whether the in-node combine stage runs.
type NodeCombineMode int

// Node-combine modes. Auto consults the cost model: combining is
// enabled when the predicted shuffle-byte saving from the job's K_m
// hint (pairs per distinct key) clears model.NodeCombineThreshold.
const (
	NodeCombineOff NodeCombineMode = iota
	NodeCombineOn
	NodeCombineAuto
)

// String returns the flag spelling of the mode.
func (m NodeCombineMode) String() string {
	switch m {
	case NodeCombineOff:
		return "off"
	case NodeCombineOn:
		return "on"
	case NodeCombineAuto:
		return "auto"
	}
	return "node-combine?"
}

// ParseNodeCombineMode parses the -node-combine flag spelling.
func ParseNodeCombineMode(s string) (NodeCombineMode, error) {
	switch s {
	case "off", "":
		return NodeCombineOff, nil
	case "on":
		return NodeCombineOn, nil
	case "auto":
		return NodeCombineAuto, nil
	}
	return NodeCombineOff, errSpec("node-combine mode must be off, on, or auto")
}

// Validate fills defaults in place and rejects invalid specs.
// NewJobFrame calls it for both backends, so both resolve the same
// effective configuration from the same spec.
func (s *JobSpec) Validate() error {
	c := &s.Cluster
	if s.Query == nil || s.Input == nil {
		return errSpec("query and input are required")
	}
	if c.Nodes < 1 || c.Cores < 1 || c.MapSlots < 1 || c.ReduceSlots < 1 || c.R < 1 {
		return errSpec("cluster shape must be positive")
	}
	if c.MergeFactor < 2 {
		return errSpec("merge factor must be ≥ 2")
	}
	if c.MapBuffer <= 0 || c.ReduceBuffer <= 0 {
		return errSpec("buffers must be positive")
	}
	if c.Page <= 0 {
		c.Page = 1 << 12
	}
	if c.ReadSegment <= 0 {
		c.ReadSegment = 1 << 18
	}
	if c.SlotCache <= 0 {
		c.SlotCache = c.MapSlots
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.ProgressInterval <= 0 {
		c.ProgressInterval = 20 * time.Second
	}
	if s.Hints.Km <= 0 {
		s.Hints.Km = 1
	}
	if s.Hints.DistinctKeys <= 0 {
		s.Hints.DistinctKeys = 1 << 20
	}
	f := &s.Faults
	if f.FailPoint < 0 || f.FailPoint > 1 {
		return errSpec("fault fail-point must be in [0,1]")
	}
	chunks := s.Input.NumChunks()
	for chunk, n := range f.MapFailures {
		if chunk < 0 || chunk >= chunks {
			return errSpec("map-failure chunk index out of range")
		}
		if n < 0 {
			return errSpec("map-failure count must be ≥ 0")
		}
	}
	reducers := c.R * c.Nodes
	for idx, n := range f.ReduceFailures {
		if idx < 0 || idx >= reducers {
			return errSpec("reduce-failure task index out of range")
		}
		if n < 0 {
			return errSpec("reduce-failure count must be ≥ 0")
		}
	}
	for idx, frac := range f.KillAtMapProgress {
		if idx < 0 || idx >= c.Nodes {
			return errSpec("kill-at-progress node index out of range")
		}
		if frac <= 0 || frac > 1 {
			return errSpec("kill-at-progress fraction must be in (0,1]")
		}
	}
	if len(f.KillAtMapProgress) >= c.Nodes {
		return errSpec("at least one node must survive")
	}
	if f.ShuffleErrorRate < 0 || f.ShuffleErrorRate >= 1 {
		return errSpec("shuffle-error rate must be in [0,1)")
	}
	for idx, factor := range f.SlowNodes {
		if idx < 0 || idx >= c.Nodes {
			return errSpec("slow-node index out of range")
		}
		if factor < 1 {
			return errSpec("slow-node factor must be ≥ 1")
		}
	}
	if f.HeartbeatInterval <= 0 {
		f.HeartbeatInterval = 3 * time.Second
	}
	if f.HeartbeatTimeout <= 0 {
		f.HeartbeatTimeout = 30 * time.Second
	}
	if s.CheckpointEvery < 0 {
		return errSpec("checkpoint interval must be ≥ 0")
	}
	if s.SkipBadRecords < 0 {
		return errSpec("skip-bad-records budget must be ≥ 0")
	}
	if s.NodeCombine < NodeCombineOff || s.NodeCombine > NodeCombineAuto {
		return errSpec("unknown node-combine mode")
	}
	if s.AggFanIn < 0 {
		return errSpec("agg fan-in must be ≥ 0")
	}
	if s.AggFanIn > 1 {
		if s.NodeCombine == NodeCombineOff {
			return errSpec("hierarchical aggregation requires node-combine on or auto")
		}
		if s.Platform == HOP {
			return errSpec("hierarchical aggregation is not supported on the hop platform")
		}
	}
	d := &f.Disk
	if d.IOErrorRate < 0 || d.IOErrorRate >= 1 {
		return errSpec("disk io-error rate must be in [0,1)")
	}
	if d.CorruptRate < 0 || d.CorruptRate >= 1 {
		return errSpec("disk corrupt rate must be in [0,1)")
	}
	for _, cl := range d.Classes {
		if cl < 0 || cl >= storage.NumIOClasses {
			return errSpec("disk-fault I/O class out of range")
		}
	}
	if d.needsRecovery() && !c.Checksums {
		// Without checksums a flipped bit or torn tail would silently
		// change answers; reject rather than mis-simulate.
		return errSpec("corruption and torn-write injection require Cluster.Checksums")
	}
	if d.TornWrites && len(f.KillAtMapProgress) == 0 {
		return errSpec("torn writes surface at node kills: KillAtMapProgress is required")
	}
	if s.Platform == HOP && f.any() {
		// HOP's eager pipelining publishes map output as it is produced;
		// retrying an attempt would re-publish spills. Fault injection is
		// a non-goal there (§3.3 already faults pipelining for its
		// fault-tolerance cost) — reject rather than mis-simulate.
		return errSpec("fault injection is not supported on the hop platform")
	}
	if s.Platform == HOP && d.needsRecovery() {
		return errSpec("the hop platform supports only transient disk errors, not corruption")
	}
	if s.Platform == HOP && d.IOErrorRate > 0.25 {
		// HOP's attempt chain has length one — pipelined pushes cannot be
		// re-consumed, so an exhausted retry budget fails the job instead
		// of restarting the attempt; keep that probability (rate^12)
		// negligible.
		return errSpec("hop disk io-error rate must be ≤ 0.25")
	}
	return nil
}

// FaultPlan describes injected failures: per-task attempt failures,
// whole-node crashes at map-progress points, transient shuffle errors,
// slow (straggler) nodes, speculative re-execution of stragglers, and
// disk damage. Every trigger is a function of the job spec, so both
// backends run the same plan.
type FaultPlan struct {
	// MapFailures maps a chunk index to the number of attempts that
	// fail before one succeeds.
	MapFailures map[int]int
	// ReduceFailures maps a reduce task index to the number of attempts
	// that fail before one succeeds, counting only attempts on nodes
	// that never die (ReduceTask.Next; one on a killed node dies with it).
	// A failed reduce attempt discards its partial state and provisional
	// output and re-shuffles from scratch (or from its last checkpoint,
	// if checkpointing is on).
	ReduceFailures map[int]int
	// FailPoint is the fraction of the task's work completed before
	// the failure hits (default 1.0: fails at the very end, the worst
	// case — all work wasted): of the chunk's bytes for a map attempt, of
	// the map tasks folded in (a combined run counts each) for a reduce.
	FailPoint float64

	// KillAtMapProgress maps a node index to a map-phase progress
	// fraction in (0, 1] at which the node crashes: with K =
	// ceil(fraction × map tasks) (JobFrame.KillAfter), the node dies
	// once chunks 0…K-1 have all completed. Both backends interpret it
	// the same way (task_faults.go): the node's chunks below K run there
	// and lose their output (JobFrame.Lost), its chunks from K on start
	// on a survivor (JobFrame.Home), and lost outputs re-execute and its
	// reducers restart on survivors (JobFrame.Place), where reducers
	// that reach a lost output retry the fetch with backoff until the
	// re-execution republishes it. On the DES the node crashes at the
	// virtual instant the prefix completes and the failure detector
	// declares it dead HeartbeatTimeout later; on the wall-clock backend
	// each lost output is re-executed as its map chain returns. 1 kills
	// the node as the last map task completes.
	KillAtMapProgress map[int]float64

	// crashAt moves a KillAtMapProgress node's crash to a fixed virtual
	// instant on the DES. Only this package's tests set it, for kills
	// no map-progress point reaches (inside the final reduce).
	crashAt map[int]time.Duration

	// ShuffleErrorRate is the per-fetch probability of a transient
	// shuffle-read error: the reducer retries the fetch with capped
	// exponential backoff, and the errors are seeded rolls per (reducer,
	// output, attempt, try) (JobSpec.ShuffleFetchFails), so both
	// backends roll the same ones.
	ShuffleErrorRate float64

	// SlowNodes maps a node index to a slowdown factor ≥ 1 applied to
	// its CPU and disks — a straggler. Speculative execution exists to
	// beat these.
	SlowNodes map[int]float64

	// Speculate enables speculative backup attempts for map stragglers.
	// Which tasks may race a backup, and on which node, is structural
	// (JobFrame.Backup): tasks homed on a slow node that never dies and
	// has no injected map failures, backed up away from that node. The
	// wall-clock backend races every such task; the DES launches the
	// backup once the task has run longer than twice the median
	// completed-attempt duration. The first finisher wins and the
	// loser's output is dropped.
	Speculate bool

	// HeartbeatInterval is how often the failure detector checks node
	// liveness and straggler status (default 3s of virtual time).
	HeartbeatInterval time.Duration

	// HeartbeatTimeout is how long after a node's crash the detector
	// declares it dead (default 30s): crashed-but-undeclared nodes are
	// the window where reducers retry fetches against a silent peer.
	HeartbeatTimeout time.Duration

	// Disk injects data-plane faults: transient I/O errors, write-time
	// bit flips, and torn checkpoint tails.
	Disk DiskFaultPlan
}

// DiskFaultPlan describes deterministic, seeded disk-fault injection —
// the quiet failure mode under the node crashes above: flaky devices,
// bit rot, and writes cut mid-flight. Decisions are drawn per request
// from JobSpec.Seed (StoreFaults), so a faulted run is exactly
// reproducible for any worker-pool size.
//
// Injection is live during the map phase: on the DES until the virtual
// instant the last map task completes, on the wall-clock backend in its
// primary map attempts (speculative backups included). No recovery
// attempt is damaged (re-executions, folds and reducers run clean), so
// every plan is survivable. What each backend reads back differs: the
// DES reads map outputs, reduce spills and checkpoints written before
// its last map completes; the wall-clock backend shuffles in memory, so only
// sort-merge's map-side spills are read back and verified there, and
// torn writes repair nothing (a killed node's reducers are displaced
// before they checkpoint). Answers are identical on both.
type DiskFaultPlan struct {
	// IOErrorRate is the per-request probability of a transient I/O
	// error. The storage layer retries with exponential backoff
	// (bounded); the job's answers are unchanged, only virtual time and
	// Report.IORetries grow.
	IOErrorRate float64

	// CorruptRate is the per-frame probability that a write is
	// persisted with one flipped bit. Requires Cluster.Checksums: the
	// flip is caught on the next read of the frame and recovered —
	// shuffle reads re-fetch then re-execute the source map task;
	// spill/bucket reads restart the attempt; checkpoint images fall
	// back to the previous good one.
	CorruptRate float64

	// TornWrites truncates the tail of the latest checkpoint image of
	// every reducer on a node at the moment that node is declared dead
	// (the replication pipeline was cut mid-flight). Requires
	// KillAtMapProgress and Cluster.Checksums; recovery falls back to
	// the previous good image, then to full replay.
	TornWrites bool

	// Classes restricts injection to these I/O classes (empty: all).
	Classes []storage.IOClass
}

// any reports whether the plan injects anything at all.
func (d *DiskFaultPlan) any() bool {
	return d.IOErrorRate > 0 || d.CorruptRate > 0 || d.TornWrites
}

// needsRecovery reports whether the plan injects persistent damage
// (anything beyond storage-internal transient retries), which needs
// the tracker's re-execution machinery and checksums to catch it.
func (d *DiskFaultPlan) needsRecovery() bool {
	return d.CorruptRate > 0 || d.TornWrites
}

// diskSeed is the seed every disk-fault decision is drawn from.
func (s *JobSpec) diskSeed() int64 { return s.Seed ^ 0x5eed1e57 }

// StoreFaults builds the storage-layer injection config for one store
// in the map phase, or nil when the plan injects no disk damage. Both
// drivers call it: the DES once per node store, whose sequence runs
// across every task on the node, and the wall-clock backend once per
// map attempt's store, passing ids = (chunk, attempt) so that two
// attempts on one node draw different sequences.
func (s *JobSpec) StoreFaults(ids ...int64) *storage.DiskFaults {
	d := &s.Faults.Disk
	if !d.any() {
		return nil
	}
	df := &storage.DiskFaults{Seed: s.diskSeed(), IOErrorRate: d.IOErrorRate, CorruptRate: d.CorruptRate}
	if len(ids) > 0 {
		df.Seed = int64(storage.Hash64(append([]int64{df.Seed}, ids...)...))
	}
	for c := range df.Classes {
		df.Classes[c] = len(d.Classes) == 0
	}
	for _, c := range d.Classes {
		df.Classes[c] = true
	}
	return df
}

// any reports whether the plan injects anything at all.
func (f *FaultPlan) any() bool {
	return len(f.MapFailures) > 0 || len(f.ReduceFailures) > 0 || len(f.KillAtMapProgress) > 0 ||
		len(f.SlowNodes) > 0 || f.Speculate || f.ShuffleErrorRate > 0
}

// risky reports whether attempts can fail after consuming input
// (node kills or injected reduce failures), which makes reduce output
// provisional until the attempt commits.
func (f *FaultPlan) risky() bool {
	return len(f.KillAtMapProgress) > 0 || len(f.ReduceFailures) > 0
}

// ReduceRestarts reports whether a reduce attempt of this job can fail
// after consuming input and be restarted: a risky plan, or disk faults
// on any platform but HOP (whose chain has length one). Such runs
// retain fetched map outputs for re-fetch and hold reduce output
// provisional until an attempt commits.
func (s *JobSpec) ReduceRestarts() bool {
	return s.Faults.risky() || (s.Faults.Disk.any() && s.Platform != HOP)
}

// failPoint is the plan's FailPoint with its default-to-1 guard.
func (f *FaultPlan) failPoint() float64 {
	if f.FailPoint <= 0 || f.FailPoint > 1 {
		return 1
	}
	return f.FailPoint
}

// MapFailAt is the byte offset through a chunk of chunkLen bytes at
// which an injected map failure kills the attempt.
func (f *FaultPlan) MapFailAt(chunkLen int) int64 {
	return int64(f.failPoint() * float64(chunkLen))
}

// ShuffleFetchFails reports whether try number try of reducer ridx's
// fetch of map output (chunk, seq), in reduce attempt attempt, rolls a
// transient shuffle error. Both backends roll through here, so which
// fetches fail is a pure function of the spec.
func (s *JobSpec) ShuffleFetchFails(ridx, chunk, seq, attempt, try int) bool {
	rate := s.Faults.ShuffleErrorRate
	return rate > 0 && storage.Roll(rate, s.Seed^0x0f377a11,
		int64(ridx), int64(chunk), int64(seq), int64(attempt), int64(try))
}

// needsTracker reports whether the run needs the failure-detector /
// speculation daemon. Clean runs must not pay for it: the daemon's
// ticks would interleave with job events and perturb recorded metrics.
func (f *FaultPlan) needsTracker() bool {
	return len(f.KillAtMapProgress) > 0 || f.Speculate
}

// nodeCombinable reports whether the in-node combine stage can apply
// at all: the query must be an mr.Combiner — its map output pairs are
// partial aggregates (combined values, or merged states on the
// incremental platforms) that a node-level fold can merge further —
// and the platform must hold complete map outputs until task
// completion. HOP pipelines spills eagerly as they are produced, so
// there is no whole per-node output to merge.
func (s *JobSpec) nodeCombinable() bool {
	if s.Platform == HOP {
		return false
	}
	_, isComb := s.Query.(mr.Combiner)
	return isComb
}

// NodeCombineActive resolves the spec's NodeCombine mode against the
// query, the platform, and (for auto) the cost model's predicted
// shuffle-byte saving from the K_m/K_r hints. Both substrates resolve
// through here, so a job combines on either backend or on neither.
func (s *JobSpec) NodeCombineActive() bool {
	switch {
	case s.NodeCombine == NodeCombineOff || !s.nodeCombinable():
		return false
	case s.NodeCombine == NodeCombineAuto:
		w := model.Workload{D: 1, Km: s.Hints.Km, Kr: s.Hints.Kr}
		return model.NodeCombineSavedFrac(w, s.Cluster.Nodes) >= model.NodeCombineThreshold
	}
	return true
}

type errSpec string

func (e errSpec) Error() string { return "engine: invalid job spec: " + string(e) }
