// Command onepass runs a single MapReduce job on the simulated
// cluster and prints its report: running time, I/O volumes per class,
// per-phase CPU, and a compact progress plot.
//
// Usage:
//
//	onepass -query sessionization -platform dinc-hash -data 236e9 -scale 1/512
//
// Queries: sessionization, clickcount, frequsers, pagefreq, trigram.
// Platforms: sm, hop, mr-hash, inc-hash, dinc-hash.
//
// The flags fill in an onepass.JobParams and onepass.BuildJob builds
// the job, as the scheduler's POST /v1/jobs and the figures do: equal
// parameters mean the same job everywhere, and one that cannot be built
// is "onepass: <reason>" and exit status 1.
//
// -node-combine=on folds every node's local map outputs into one
// merged run before the shuffle (combinable queries only; auto defers
// to the analytical model's predicted saving), and -agg-fanin=F folds
// F consecutive nodes' runs through the first — the report then shows
// the pairs folded, the shuffle bytes saved, and the per-node shuffle
// breakdown.
//
// -backend=real runs the job on real goroutines under wall-clock time
// with an in-memory shuffle instead of the discrete-event simulation;
// answers and counters match the simulated run, while the reported
// times are measured. Fault-injection and checkpoint flags mean the
// same on both backends: -kill-node takes a map-progress percentage
// (1@60% kills node 1 as 60% of the map tasks finish),
// -shuffle-error-rate rolls transient fetch errors, and disk damage
// (-io-error-rate, -corrupt-rate, -torn-writes) is injected during the
// map phase only (on the real backend, into primary map attempts). The
// real backend's shuffle is in memory, so there only sort-merge's
// map-side spills read damaged bytes back, and torn writes repair nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/asciiplot"
	"repro/internal/prof"
)

// options is a parsed command line: the built job, where to run it,
// and where its by-products go.
type options struct {
	backend  onepass.Backend
	job      onepass.Job
	newQuery func() onepass.Query

	trace, cpuProfile, memProfile string
}

// parseArgs is flags → onepass.JobParams → onepass.BuildJob, then the
// fields the builder leaves to its caller (the fault plan, checksums,
// the bad-record budget) set on the spec it returned.
func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		queryFlag   = fs.String("query", "sessionization", "query: sessionization|clickcount|frequsers|pagefreq|trigram")
		platFlag    = fs.String("platform", "inc-hash", "platform: sm|hop|mr-hash|inc-hash|dinc-hash")
		backendFlag = fs.String("backend", "sim", "execution backend: sim (discrete-event simulation) | real (goroutines, wall-clock time, in-memory shuffle)")
		dataFlag    = fs.Float64("data", 64e9, "logical input size in bytes")
		scaleFlag   = fs.String("scale", "1/512", "physical:logical scale, e.g. 1/512")
		chunkFlag   = fs.Float64("chunk", 64e6, "chunk size C in logical bytes")
		stateFlag   = fs.Int("state", 512, "sessionization state size in bytes")
		usersFlag   = fs.Int("users", 0, "distinct users (0 = sized to ~2.2x reduce memory)")
		seedFlag    = fs.Int64("seed", 42, "workload seed")
		fFlag       = fs.Int("f", 0, "merge factor F (0 = one-pass)")
		rFlag       = fs.Int("r", 4, "reducers per node R")
		traceFlag   = fs.String("trace", "", "write a Chrome trace (chrome://tracing) of task spans to this file")
		workersFlag = fs.Int("workers", 0, "threads a job computes on: sim = kernel thread + workers-1 pool goroutines, real = map goroutines and as many reduce slots (0=GOMAXPROCS; results identical)")
		combFlag    = fs.String("node-combine", "off", "in-node combine stage: off | on | auto (cost-model gated; combinable queries only)")
		fanInFlag   = fs.Int("agg-fanin", 0, "hierarchical aggregation fan-in: fold F consecutive nodes' combined runs through the first (0/1 = per-node only; needs -node-combine)")

		killFlag = fs.String("kill-node", "", "crash nodes at map progress: idx@percent%%, e.g. 9@60%% (node 9 dies as 60%% of the map tasks finish)")
		shufFlag = fs.Float64("shuffle-error-rate", 0, "per-fetch probability of a transient shuffle-read error")
		slowFlag = fs.String("slow-node", "", "slow nodes by a factor, e.g. 3@4 (node 3 runs 4x slower)")
		failFlag = fs.String("fail-maps", "", "inject map-task failures, e.g. 0:2,7:1 (chunk:attempts)")
		ckptFlag = fs.Duration("checkpoint-every", 0, "checkpoint incremental reducer state every virtual interval (0 = off)")
		specFlag = fs.Bool("speculate", false, "launch speculative backups for map stragglers")

		cpuFlag = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memFlag = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")

		sumFlag     = fs.Bool("checksums", false, "CRC32C-frame every persisted stream and verify on read")
		ioErrFlag   = fs.Float64("io-error-rate", 0, "per-request probability of a transient disk I/O error, in the map phase")
		corruptFlag = fs.Float64("corrupt-rate", 0, "per-write probability of a persisted bit flip, in the map phase (needs -checksums)")
		tornFlag    = fs.Bool("torn-writes", false, "tear checkpoint tails when a killed node is declared dead (needs a -kill-node kill and -checksums; repairs nothing on -backend real, whose killed reducers never checkpoint)")
		skipFlag    = fs.Int64("skip-bad-records", 0, "bad-record quarantine budget per map task (0 = poison records fail the job)")
	)
	fs.Parse(args) // ExitOnError

	o := &options{trace: *traceFlag, cpuProfile: *cpuFlag, memProfile: *memFlag}
	var err error
	if o.backend, err = onepass.ParseBackend(*backendFlag); err != nil {
		return nil, err
	}
	mergeFactor := *fFlag
	if mergeFactor <= 0 {
		mergeFactor = onepass.ModelMergeFactor
	}
	o.job, o.newQuery, err = onepass.BuildJob(onepass.JobParams{
		Query: *queryFlag, Platform: *platFlag, Scale: *scaleFlag,
		DataBytes: *dataFlag, ChunkBytes: *chunkFlag,
		StateBytes: *stateFlag, Users: *usersFlag, Seed: *seedFlag,
		Reducers: *rFlag, MergeFactor: mergeFactor, Workers: *workersFlag,
		NodeCombine: *combFlag, AggFanIn: *fanInFlag, CheckpointEvery: *ckptFlag,
	})
	if err != nil {
		return nil, err
	}

	o.job.Faults, err = parseFaults(*killFlag, *slowFlag, *failFlag, *specFlag)
	if err != nil {
		return nil, err
	}
	o.job.Faults.ShuffleErrorRate = *shufFlag
	o.job.Faults.Disk = onepass.DiskFaultPlan{
		IOErrorRate: *ioErrFlag,
		CorruptRate: *corruptFlag,
		TornWrites:  *tornFlag,
	}
	o.job.Cluster.Checksums = *sumFlag
	o.job.SkipBadRecords = *skipFlag
	return o, nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	stop, err := prof.Start(o.cpuProfile, o.memProfile)
	if err != nil {
		fatal(err)
	}
	stopProf = stop
	rep, err := o.backend(o.job, o.newQuery)
	if err != nil {
		fatal(err)
	}
	printReport(os.Stdout, rep)
	if o.trace != "" {
		if err := writeChromeTrace(o.trace, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("\ntask trace written to %s (open in chrome://tracing)\n", o.trace)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// writeChromeTrace exports the per-task spans in Chrome's trace-event
// JSON format: one "thread" per (node, kind) lane.
func writeChromeTrace(path string, rep *onepass.Report) error {
	type ev struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`  // microseconds
		Dur  int64  `json:"dur"` // microseconds
		Pid  int    `json:"pid"`
		Tid  int    `json:"tid"`
	}
	events := make([]ev, 0, len(rep.Spans))
	for _, s := range rep.Spans {
		tid := s.Node * 2
		if strings.HasPrefix(s.Kind, "reduce") {
			tid++
		}
		events = append(events, ev{
			Name: s.Name, Ph: "X",
			Ts:  s.Start.Microseconds(),
			Dur: (s.End - s.Start).Microseconds(),
			Pid: s.Node, Tid: tid,
		})
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printReport writes the report block. A Report without a progress
// curve is the wall-clock backend's: its running and map-finish times
// are measured host time, shown in milliseconds below 10 s, and it has
// no Definition 1 plot or utilization strips to draw.
func printReport(w io.Writer, rep *onepass.Report) {
	measured := len(rep.Progress) == 0
	dur := func(d time.Duration) time.Duration {
		if measured && d < 10*time.Second {
			return d.Round(time.Millisecond)
		}
		return d.Round(time.Second)
	}
	fmt.Fprintf(w, "query            %s on %s\n", rep.Query, rep.Platform)
	fmt.Fprintf(w, "running time     %s (maps finished at %s)\n",
		dur(rep.RunningTime), dur(rep.MapFinishTime))
	fmt.Fprintf(w, "cpu per node     map %s, reduce %s\n",
		rep.MapCPUPerNode.Round(time.Second), rep.ReduceCPUPerNode.Round(time.Second))
	fmt.Fprintf(w, "input            %7.1f GB\n", float64(rep.InputBytes)/1e9)
	fmt.Fprintf(w, "map spill  (U2)  %7.1f GB\n", float64(rep.MapSpillBytes)/1e9)
	fmt.Fprintf(w, "shuffle    (U3)  %7.1f GB\n", float64(rep.MapOutputBytes)/1e9)
	fmt.Fprintf(w, "reduce spill(U4) %7.1f GB\n", float64(rep.ReduceSpillBytes)/1e9)
	fmt.Fprintf(w, "output     (U5)  %7.1f GB (%d records)\n", float64(rep.OutputBytes)/1e9, rep.OutputRecords)
	fmt.Fprintf(w, "shuffle fetches  %d from memory, %d from disk\n", rep.MemShuffleFetches, rep.DiskShuffleFetches)

	if rep.NodeCombineInputRecords > 0 {
		fmt.Fprintf(w, "node combine     %d map pairs folded to %d (%.1fx), %.2f GB shuffle saved\n",
			rep.NodeCombineInputRecords, rep.NodeCombineOutputRecords,
			float64(rep.NodeCombineInputRecords)/float64(rep.NodeCombineOutputRecords),
			float64(rep.ShuffleBytesSaved)/1e9)
	}
	if len(rep.ShuffleBytesByNode) > 0 {
		fmt.Fprintf(w, "shuffle by node ")
		for i, b := range rep.ShuffleBytesByNode {
			fmt.Fprintf(w, " n%d=%.2fGB", i, float64(b)/1e9)
		}
		fmt.Fprintln(w)
	}

	if rep.NodesLost > 0 || rep.RestartedReduceTasks > 0 || rep.ReExecutedMapTasks > 0 ||
		rep.Checkpoints > 0 || rep.SpeculativeBackups > 0 || rep.FetchRetries > 0 {
		fmt.Fprintf(w, "recovery         %d nodes lost, %d maps re-executed, %d reduces restarted, %d fetch retries\n",
			rep.NodesLost, rep.ReExecutedMapTasks, rep.RestartedReduceTasks, rep.FetchRetries)
		fmt.Fprintf(w, "                 %d checkpoints (%.1f GB written), %.1f GB re-read on recovery\n",
			rep.Checkpoints, float64(rep.CheckpointBytes)/1e9, float64(rep.RecoveryReadBytes)/1e9)
		if rep.SpeculativeBackups > 0 {
			fmt.Fprintf(w, "speculation      %d backups launched, %d won their race\n",
				rep.SpeculativeBackups, rep.SpeculativeWins)
		}
		fmt.Fprintf(w, "wasted cpu/node  %s (failed, aborted, and superseded attempts)\n",
			rep.WastedCPUPerNode.Round(time.Second))
	}

	if rep.ChecksumOverheadBytes > 0 || rep.IORetries > 0 ||
		rep.CorruptFramesDetected > 0 || rep.QuarantinedRecords > 0 {
		fmt.Fprintf(w, "integrity        %d I/O retries, %d corrupt frames detected, %d torn tails repaired, %d records quarantined\n",
			rep.IORetries, rep.CorruptFramesDetected, rep.TornWritesRepaired, rep.QuarantinedRecords)
		if rep.ChecksumOverheadBytes > 0 {
			fmt.Fprintf(w, "checksum bytes   %.3f GB framing overhead (%.2f%% of total I/O)\n",
				float64(rep.ChecksumOverheadBytes)/1e9,
				100*float64(rep.ChecksumOverheadBytes)/float64(rep.TotalIOBytes))
		}
	}

	if measured {
		return
	}
	fmt.Fprintln(w, "\nprogress (Definition 1):")
	var b strings.Builder
	mapC := asciiplot.Curve{Name: "map", Marker: '#'}
	redC := asciiplot.Curve{Name: "reduce", Marker: 'o'}
	for _, p := range rep.Progress {
		mapC.T = append(mapC.T, p.T)
		mapC.V = append(mapC.V, p.Map)
		redC.T = append(redC.T, p.T)
		redC.V = append(redC.V, p.Reduce)
	}
	asciiplot.Progress(&b, []asciiplot.Curve{mapC, redC}, rep.RunningTime, 20, 50)
	// CPU utilization and iowait strips (the Fig 2 views).
	var ts []time.Duration
	var util, iow []float64
	for _, s := range rep.Samples {
		ts = append(ts, s.T)
		util = append(util, s.CPUUtil)
		iow = append(iow, s.IOWait)
	}
	asciiplot.Series(&b, "cpu util", ts, util, 50)
	asciiplot.Series(&b, "iowait", ts, iow, 50)
	fmt.Fprint(w, b.String())
}

// parseFaults assembles the fault plan from the command-line flags.
func parseFaults(kill, slow, fail string, speculate bool) (onepass.FaultPlan, error) {
	f := onepass.FaultPlan{Speculate: speculate}
	for _, part := range splitList(kill) {
		idxS, atS, ok := strings.Cut(part, "@")
		pctS, isPct := strings.CutSuffix(atS, "%")
		idx, err1 := strconv.Atoi(idxS)
		pct, err2 := strconv.ParseFloat(pctS, 64)
		if !ok || !isPct || err1 != nil || err2 != nil {
			return f, fmt.Errorf("bad -kill-node entry %q (want idx@percent%%)", part)
		}
		if f.KillAtMapProgress == nil {
			f.KillAtMapProgress = map[int]float64{}
		}
		f.KillAtMapProgress[idx] = pct / 100
	}
	for _, part := range splitList(slow) {
		idxS, facS, ok := strings.Cut(part, "@")
		if !ok {
			return f, fmt.Errorf("bad -slow-node entry %q (want idx@factor)", part)
		}
		idx, err1 := strconv.Atoi(idxS)
		fac, err2 := strconv.ParseFloat(facS, 64)
		if err1 != nil || err2 != nil {
			return f, fmt.Errorf("bad -slow-node entry %q (want idx@factor)", part)
		}
		if f.SlowNodes == nil {
			f.SlowNodes = map[int]float64{}
		}
		f.SlowNodes[idx] = fac
	}
	for _, part := range splitList(fail) {
		chunkS, nS, ok := strings.Cut(part, ":")
		if !ok {
			return f, fmt.Errorf("bad -fail-maps entry %q (want chunk:attempts)", part)
		}
		chunk, err1 := strconv.Atoi(chunkS)
		n, err2 := strconv.Atoi(nS)
		if err1 != nil || err2 != nil {
			return f, fmt.Errorf("bad -fail-maps entry %q (want chunk:attempts)", part)
		}
		if f.MapFailures == nil {
			f.MapFailures = map[int]int{}
		}
		f.MapFailures[chunk] = n
	}
	if len(f.MapFailures) > 0 {
		f.FailPoint = 0.5
	}
	return f, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// stopProf finishes profiling; fatal flushes any open profile so a
// failed run still leaves usable pprof output.
var stopProf = func() error { return nil }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "onepass:", err)
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "onepass:", perr)
	}
	os.Exit(1)
}
