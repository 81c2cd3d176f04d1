package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/mr"
	"repro/internal/queries"
)

// Extension experiments: features the paper describes but does not
// evaluate in its tables — HOP's snapshot mode (§3.3(4)), DINC-hash's
// coverage-based approximate answers (§4.3), and the stream-processing
// window queries its conclusion points to (§8).
func init() {
	register("hopsnap", "Extension (§3.3(4)): HOP snapshot overhead", runHOPSnap)
	register("coverage", "Extension (§4.3): DINC-hash approximate answers vs coverage threshold φ", runCoverage)
	register("windows", "Extension (§8): tumbling-window stream aggregation", runWindows)
}

// runHOPSnap measures what periodic snapshots cost: the paper argues
// they repeat the merge per snapshot, inflating I/O and running time.
func runHOPSnap(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.stockCluster()
	res := &Result{
		ID:     "hopsnap",
		Title:  "HOP with periodic snapshots (sessionization, 97GB)",
		Header: []string{"snapshots", "running time (s)", "reduce spill read+written (GB)", "snapshot records"},
	}
	var reps []*engine.Report
	for _, every := range []float64{0, 0.25} {
		spec, err := c.Job(cl, engine.HOP, sessionization(97e9))
		spec.SnapshotEvery = every
		rep, err := c.run(spec, err)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		label := "none"
		if every > 0 {
			label = fmt.Sprintf("every %.0f%%", every*100)
		}
		res.Rows = append(res.Rows, []string{
			label, secs(rep.RunningTime), gb(rep.TotalIOBytes), fmt.Sprintf("%d", rep.SnapshotRecords),
		})
	}
	plain, snap := reps[0], reps[1]
	res.addFinding("snapshots at 25%%/50%%/75%% inflate running time %ss→%ss (+%.0f%%) and emit %d approximate records (paper: 'high I/O overhead and significantly increased running time')",
		secs(plain.RunningTime), secs(snap.RunningTime),
		100*(snap.RunningTime.Seconds()/plain.RunningTime.Seconds()-1), snap.SnapshotRecords)
	return res, nil
}

// runCoverage sweeps DINC-hash's coverage threshold φ on click
// counting: higher φ demands more provable coverage before a key may
// be answered from memory.
func runCoverage(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := onePassSM(c, 97e9)
	// Tight reduce memory so the monitored set is a small fraction of
	// the keys; the pool is sized so hot users accumulate enough
	// combines for their coverage under-estimate γ to clear φ.
	cl.ReduceBuffer /= 8
	users := jobspec.SessionUsers(cl, 8) * 4
	res := &Result{
		ID:     "coverage",
		Title:  "DINC-hash approximate early answers (click counting, 97GB)",
		Header: []string{"φ", "running time (s)", "approx keys", "reduce spill (GB)"},
	}
	for _, phi := range []float64{0, 0.1, 0.5} {
		spec, err := c.Job(cl, engine.DINCHash, jobspec.Params{Query: "clickcount", DataBytes: 97e9, Users: users})
		spec.Hints.Km = 0.02
		spec.CoverageThreshold = phi
		rep, err := c.run(spec, err)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1f", phi), secs(rep.RunningTime),
			fmt.Sprintf("%d", rep.ApproxKeys), gb(rep.ReduceSpillBytes),
		})
		if phi == 0 && rep.ApproxKeys != 0 {
			return nil, fmt.Errorf("coverage: approximate answers with φ=0")
		}
		if phi > 0 {
			res.addFinding("φ=%.1f: %d monitored keys answered approximately from memory", phi, rep.ApproxKeys)
		}
	}
	res.addFinding("γ = t/(t + M/(s+1)) under-estimates coverage, so φ controls how many monitored keys may be answered from memory without reading buckets back (§4.3)")
	return res, nil
}

// runWindows exercises the stream-processing extension: tumbling
// 1-hour URL-visit windows over a day of clicks.
func runWindows(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := onePassSM(c, 97e9)
	res := &Result{
		ID:     "windows",
		Title:  "Tumbling-window visit counts (1h windows over 24h of clicks, 97GB)",
		Header: []string{"platform", "running time (s)", "reduce spill (GB)", "windows out by map finish"},
	}
	var incEarly float64
	for _, pl := range []engine.Platform{engine.SortMerge, engine.INCHash, engine.DINCHash} {
		// The window query is not a catalogue entry: it reads the click
		// stream pagefreq does, keyed by (hour, URL).
		spec, err := c.Job(cl, pl, jobspec.Params{Query: "pagefreq", DataBytes: 97e9, Users: 60_000})
		spec.Query = queries.NewWindowCount(time.Hour, 5*time.Second)
		spec.Hints = mr.Hints{Km: 0.05, DistinctKeys: 24 * 20_000}
		rep, err := c.run(spec, err)
		if err != nil {
			return nil, err
		}
		early := 0.0
		for _, p := range rep.Progress {
			if p.T <= rep.MapFinishTime {
				early = p.Out
			}
		}
		if pl == engine.INCHash {
			incEarly = early
		}
		res.Rows = append(res.Rows, []string{
			pl.String(), secs(rep.RunningTime), gb(rep.ReduceSpillBytes),
			fmt.Sprintf("%.0f%%", early*100),
		})
		res.Series = append(res.Series, progressSeries("windows_"+pl.String(), rep))
	}
	res.addFinding("incremental platforms emit %.0f%% of the window results before the maps finish — near-real-time stream aggregation on the one-pass platform (the §8 future-work scenario)", 100*incEarly)
	return res, nil
}
