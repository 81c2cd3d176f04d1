package simfuzz

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/realexec"
	"repro/internal/reference"
)

// Failure is one violated conformance property.
type Failure struct {
	Platform string `json:"platform"` // "name/clean", "name/faulted", or "name/workers"
	Check    string `json:"check"`    // property family: oracle, accounting, workers, run
	Detail   string `json:"detail"`
}

// Verdict is the outcome of running one case.
type Verdict struct {
	Failures []Failure `json:"failures,omitempty"`
}

// OK reports whether every check passed.
func (v *Verdict) OK() bool { return len(v.Failures) == 0 }

// String lists the failures, one per line.
func (v *Verdict) String() string {
	if v.OK() {
		return "ok"
	}
	var b strings.Builder
	for _, f := range v.Failures {
		fmt.Fprintf(&b, "[%s] %s: %s\n", f.Platform, f.Check, f.Detail)
	}
	return strings.TrimRight(b.String(), "\n")
}

func (v *Verdict) addf(platform, check, format string, args ...any) {
	v.Failures = append(v.Failures, Failure{
		Platform: platform, Check: check, Detail: fmt.Sprintf(format, args...),
	})
}

// RunCase executes one case on every platform it names and returns the
// verdict. Per platform: a clean run checked against the oracle and
// the accounting identities; if the case carries a fault schedule, a
// faulted run (heartbeat/checkpoint times anchored on the clean run's
// MapFinishTime) checked the same way; a wall-clock backend run of the
// case's own spec, clean or faulted, checked against the same oracle
// and held to the DES run of that spec; and, on one seed-picked
// platform, a rerun with a different worker-pool size held to the base
// run. Which Report fields two runs may disagree on, and which counters
// a run may raise, is the Report's tag table (engine/report.go).
func RunCase(c Case) Verdict {
	c = c.Clone()
	c.Normalize()
	var v Verdict
	input := c.Input()
	oracle, err := oracleAnswer(&c, input)
	if err != nil {
		v.addf("oracle", "run", "%v", err)
		return v
	}
	for _, name := range c.Platforms {
		runPlatform(&v, &c, platformNames[name], input, oracle)
	}
	return v
}

// safeRun runs the spec, converting panics into errors so one broken
// case cannot abort a sweep.
func safeRun(spec engine.JobSpec) (rep *engine.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return engine.Run(spec)
}

func runPlatform(v *Verdict, c *Case, pl engine.Platform, input dfs.Input, oracle []string) {
	name := pl.String()
	spec := c.jobSpec(pl, input, 1, false, 0)
	clean, err := safeRun(spec)
	if err != nil {
		v.addf(name+"/clean", "run", "%v", err)
		return
	}
	checkAnswers(v, c, name+"/clean", clean, oracle)
	checkReport(v, c, name+"/clean", clean, 1, append(spec.Causes(), engine.Disk))

	base, kind := clean, "clean"
	if c.faulted() {
		spec = c.jobSpec(pl, input, 1, true, clean.MapFinishTime)
		faulted, err := safeRun(spec)
		if err != nil {
			v.addf(name+"/faulted", "run", "%v", err)
			return
		}
		checkAnswers(v, c, name+"/faulted", faulted, oracle)
		checkReport(v, c, name+"/faulted", faulted, 1, append(spec.Causes(), engine.Disk))
		base, kind = faulted, "faulted"
	}
	checkReal(v, c, name, pl, input, clean, base, oracle)

	// The cross-worker determinism check is the costliest (a full
	// rerun), so it runs on one seed-picked platform per case.
	if c.Workers2 > 1 && name == c.workerCheckPlatform() {
		rep, err := safeRun(c.jobSpec(pl, input, c.Workers2, c.faulted(), clean.MapFinishTime))
		if err != nil {
			v.addf(name+"/workers", "run", "workers=%d: %v", c.Workers2, err)
			return
		}
		if diff := engine.SimRuns.Diff(base, rep); diff != "" {
			v.addf(name+"/workers", "workers",
				"%s report with Workers=%d differs from serial run in field %s", kind, c.Workers2, diff)
		}
	}
}

// safeRunReal runs the spec on the wall-clock backend, converting
// panics into errors like safeRun.
func safeRunReal(spec realexec.Spec) (rep *engine.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return realexec.Run(spec)
}

// field reads a Report field by name, for failure messages.
func field(r *engine.Report, name string) any {
	return reflect.ValueOf(r).Elem().FieldByName(name).Interface()
}

// checkReal runs the case's own spec — clean, or its fault schedule —
// on the wall-clock backend, checks it like checkReport, and holds it
// to des, the DES run of the same spec, in every field the Backends
// comparison does not let move, and to the DES clean run in what the
// maps read (but for a kill's re-executions) and quarantined. A kill
// must lose its node and restart reducers, and injected reduce
// failures must restart them.
func checkReal(v *Verdict, c *Case, name string, pl engine.Platform, input dfs.Input, clean, des *engine.Report, oracle []string) {
	label := name + "/real"
	workers := max(c.Workers2, 1)
	job := c.jobSpec(pl, input, 1, c.faulted(), clean.MapFinishTime)
	job.Cluster.SlotCache = 1 // the smallest residency cap; realexec reads SlotCache for nothing else
	rep, err := safeRunReal(realexec.Spec{
		Job:      job,
		NewQuery: func() mr.Query { return c.newQuery(false) },
		Workers:  workers,
	})
	if err != nil {
		v.addf(label, "run", "workers=%d: %v", workers, err)
		return
	}
	checkAnswers(v, c, label, rep, oracle)
	checkReport(v, c, label, rep, workers, job.Causes())
	acct := func(format string, args ...any) { v.addf(label, "accounting", format, args...) }
	if f := job.Backends().Diff(rep, des); f != "" {
		acct("%s = %v, DES run of the same spec %v", f, field(rep, f), field(des, f))
	}
	read := func(r *engine.Report) *engine.Report {
		in := &engine.Report{QuarantinedRecords: r.QuarantinedRecords}
		if c.KillFracPct == 0 {
			in.MapInputRecords = r.MapInputRecords
		}
		return in
	}
	if f := engine.ReportDiff(read(rep), read(clean)); f != "" {
		acct("%s = %v, DES clean run %v", f, field(rep, f), field(clean, f))
	}
	if c.KillFracPct > 0 && rep.NodesLost != 1 {
		acct("one node killed but NodesLost=%d", rep.NodesLost)
	}
	if (len(c.ReduceFails) > 0 || c.KillFracPct > 0) && rep.RestartedReduceTasks == 0 {
		acct("reduce restarts scheduled (fails=%d, killfrac=%d%%) but RestartedReduceTasks=0",
			len(c.ReduceFails), c.KillFracPct)
	}
}

// workerCheckPlatform picks which platform gets the cross-worker rerun
// — seed-derived so sweeps spread the cost across all five.
func (c *Case) workerCheckPlatform() string {
	if len(c.Platforms) == 0 {
		return ""
	}
	return c.Platforms[modInt(int(c.Seed>>8), len(c.Platforms))]
}

// oracleAnswer evaluates the reference oracle and canonicalizes its
// outputs for the case's query.
func oracleAnswer(c *Case, input dfs.Input) ([]string, error) {
	outs, _ := reference.RunWithWatermarks(c.newQuery(true), input)
	pairs := make([][2]string, len(outs))
	for i, o := range outs {
		pairs[i] = [2]string{o.Key, o.Value}
	}
	return canonOutputs(c, pairs)
}

// canonOutputs maps raw output records to the canonical comparison
// form for the case's query:
//
//   - exact key/value lines for one-shot aggregates (clickcount,
//     pagefreq);
//   - distinct keys for threshold queries (frequsers, trigram): early
//     emission fires when the threshold is crossed, so emitted counts
//     legitimately differ from the final totals, and a key whose
//     emitted state was spilled can be re-emitted by a later state
//     incarnation;
//   - per-key sums for windowcount: late records produce supplementary
//     emissions under allowed-lateness update semantics;
//   - session-id-stripped click lines for sessionization: bounded-
//     buffer streaming renumbers sessions, the clicks themselves and
//     their per-user grouping must match exactly.
func canonOutputs(c *Case, outs [][2]string) ([]string, error) {
	var lines []string
	switch c.Query {
	case "frequsers", "trigram":
		// Distinct keys: a key is re-emitted when an emitted state was
		// spilled and a later occurrence independently re-crossed the
		// threshold, so only the key set is platform-invariant.
		seen := map[string]bool{}
		for _, kv := range outs {
			if !seen[kv[0]] {
				seen[kv[0]] = true
				lines = append(lines, kv[0])
			}
		}
	case "windowcount":
		sums := map[string]int64{}
		var order []string
		for _, kv := range outs {
			n, err := strconv.ParseInt(kv[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("non-integer windowcount value %q for key %q", kv[1], kv[0])
			}
			if _, ok := sums[kv[0]]; !ok {
				order = append(order, kv[0])
			}
			sums[kv[0]] += n
		}
		for _, k := range order {
			lines = append(lines, k+"\x00"+strconv.FormatInt(sums[k], 10))
		}
	case "sessionization":
		for _, kv := range outs {
			_, rec, _ := strings.Cut(kv[1], "\t")
			lines = append(lines, kv[0]+"\x00"+rec)
		}
	default:
		for _, kv := range outs {
			lines = append(lines, kv[0]+"\x00"+kv[1])
		}
	}
	sort.Strings(lines)
	return lines, nil
}

// checkAnswers compares a run's canonicalized outputs to the oracle's.
func checkAnswers(v *Verdict, c *Case, label string, rep *engine.Report, oracle []string) {
	got, err := canonOutputs(c, rep.Outputs)
	if err != nil {
		v.addf(label, "oracle", "%v", err)
		return
	}
	if len(got) != len(oracle) {
		v.addf(label, "oracle", "platform emitted %d canonical outputs, oracle has %d%s",
			len(got), len(oracle), firstDiff(got, oracle))
		return
	}
	for i := range got {
		if got[i] != oracle[i] {
			v.addf(label, "oracle", "outputs diverge at %d/%d: got %q, oracle %q",
				i, len(got), got[i], oracle[i])
			return
		}
	}
}

// firstDiff describes the first element present in one sorted list but
// not the other — the record a count mismatch lost or invented.
func firstDiff(got, want []string) string {
	i, j := 0, 0
	for i < len(got) && j < len(want) {
		switch {
		case got[i] == want[j]:
			i++
			j++
		case got[i] < want[j]:
			return fmt.Sprintf(" (extra output %q)", got[i])
		default:
			return fmt.Sprintf(" (missing output %q)", want[j])
		}
	}
	if i < len(got) {
		return fmt.Sprintf(" (extra output %q)", got[i])
	}
	if j < len(want) {
		return fmt.Sprintf(" (missing output %q)", want[j])
	}
	return ""
}

// checkReport verifies the Report's accounting identities, and that
// every counter is zero unless a cause its nonzero tag names is among
// causes — the run's spec causes, plus engine.Disk on the DES.
func checkReport(v *Verdict, c *Case, label string, rep *engine.Report, workers int, causes []string) {
	acct := func(format string, args ...any) { v.addf(label, "accounting", format, args...) }
	if f := rep.Unexplained(causes...); f != "" {
		acct("%s=%v, but the run has none of the causes its nonzero tag names (causes %v)", f, field(rep, f), causes)
	}

	var byClass int64
	for _, b := range rep.ChecksumOverheadByClass {
		if b < 0 {
			acct("negative per-class checksum overhead: %v", rep.ChecksumOverheadByClass)
		}
		byClass += b
	}
	if rep.ChecksumOverheadBytes != byClass {
		acct("ChecksumOverheadBytes=%d != sum(ByClass)=%d", rep.ChecksumOverheadBytes, byClass)
	}
	if rep.CorruptFramesDetected < rep.TornWritesRepaired {
		acct("CorruptFramesDetected=%d < TornWritesRepaired=%d",
			rep.CorruptFramesDetected, rep.TornWritesRepaired)
	}
	if rep.SpeculativeWins > rep.SpeculativeBackups {
		acct("SpeculativeWins=%d > SpeculativeBackups=%d", rep.SpeculativeWins, rep.SpeculativeBackups)
	}

	// Node-combine accounting: the fold never inflates the pair count,
	// and the per-node shuffle attribution is shaped by the cluster.
	if rep.NodeCombineOutputRecords > rep.NodeCombineInputRecords {
		acct("combine fold emitted more pairs than it absorbed: in=%d out=%d",
			rep.NodeCombineInputRecords, rep.NodeCombineOutputRecords)
	}
	if rep.ShuffleBytesSaved < 0 {
		acct("negative ShuffleBytesSaved=%d", rep.ShuffleBytesSaved)
	}
	if n := len(rep.ShuffleBytesByNode); n != 0 && n != c.Nodes {
		acct("ShuffleBytesByNode has %d entries on a %d-node cluster", n, c.Nodes)
	}
	for i, b := range rep.ShuffleBytesByNode {
		if b < 0 {
			acct("negative ShuffleBytesByNode[%d]=%d", i, b)
			break
		}
	}

	if rep.OutputRecords != int64(len(rep.Outputs)) {
		acct("OutputRecords=%d but %d records collected", rep.OutputRecords, len(rep.Outputs))
	}
	if rep.RunningTime <= 0 {
		acct("non-positive RunningTime %v", rep.RunningTime)
	}
	if rep.MapFinishTime <= 0 || rep.MapFinishTime > rep.RunningTime {
		acct("MapFinishTime %v outside (0, RunningTime=%v]", rep.MapFinishTime, rep.RunningTime)
	}
	if rep.InputBytes <= 0 || rep.MapInputRecords <= 0 {
		acct("no input accounted: InputBytes=%d MapInputRecords=%d",
			rep.InputBytes, rep.MapInputRecords)
	}
	if rep.Workers != workers {
		acct("ran with %d workers, report says %d", workers, rep.Workers)
	}
	for i, s := range rep.Spans {
		if s.End < s.Start || s.Node < 0 || s.Node >= c.Nodes {
			v.addf(label, "accounting", "malformed span %d: %+v", i, s)
			break
		}
	}
	checkProgress(v, c, label, rep)
}

// checkProgress sanity-checks the Definition 1 progress curve: sample
// times strictly ordered and progress fractions within [0, 1]. (The
// fractions themselves may regress on faulted runs — restarted work
// lowers the completed fraction — so monotonicity is not asserted.)
func checkProgress(v *Verdict, c *Case, label string, rep *engine.Report) {
	lastT := time.Duration(-1)
	for i, p := range rep.Progress {
		if p.T < lastT {
			v.addf(label, "accounting", "progress point %d goes back in time: %v after %v",
				i, p.T, lastT)
			return
		}
		lastT = p.T
		if p.Map < 0 || p.Map > 1.0001 || p.Reduce < 0 || p.Reduce > 1.0001 {
			v.addf(label, "accounting", "progress point %d has map=%v reduce=%v outside [0,1]",
				i, p.Map, p.Reduce)
			return
		}
	}
}
