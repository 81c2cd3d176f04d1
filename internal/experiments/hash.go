package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/jobspec"
)

func init() {
	register("table3", "Table 3 + Fig 7(a-c): SM vs MR-hash vs INC-hash on three click workloads", runTable3)
	register("fig7d", "Fig 7(d): INC-hash sessionization with 0.5KB/1KB/2KB states", runFig7d)
	register("table4", "Table 4 + Fig 7(e): INC-hash vs DINC-hash (sessionization, 2KB states)", runTable4)
	register("fig7f", "Fig 7(f): trigram counting, INC-hash vs DINC-hash vs SM", runFig7f)
}

// runTable3 reproduces Table 3: three workloads × three platforms,
// with the Fig 7(a-c) progress curves as series.
func runTable3(c Config) (*Result, error) {
	c = c.withDefaults()
	const data = 236e9
	cl := onePassSM(c, data)
	platforms := []engine.Platform{engine.SortMerge, engine.MRHash, engine.INCHash}

	// Map-side combining leaves roughly one state per (chunk, user):
	// with this user pool that is ~12% of the input, and the hint must
	// say so or MR-hash under-provisions its buckets.
	wls := []struct {
		name string
		km   float64 // 0 = the catalogue's
		fig  string
	}{
		{"sessionization", 0, "fig7a"},
		{"clickcount", 0.12, "fig7b"},
		{"frequsers", 0.12, "fig7c"},
	}

	res := &Result{
		ID:     "table3",
		Title:  "Optimized Hadoop (1-pass SM) vs MR-hash vs INC-hash",
		Header: []string{"workload", "metric", "1-pass SM", "MR-hash", "INC-hash"},
	}
	for _, w := range wls {
		var reps []*engine.Report
		for _, pl := range platforms {
			spec, err := c.Job(cl, pl, jobspec.Params{Query: w.name, DataBytes: data})
			if w.km > 0 {
				spec.Hints.Km = w.km
			}
			rep, err := c.run(spec, err)
			if err != nil {
				return nil, err
			}
			reps = append(reps, rep)
			res.Series = append(res.Series, progressSeries(fmt.Sprintf("%s_%s_%s", w.fig, w.name, pl), rep))
		}
		row := func(metric string, f func(*engine.Report) string) {
			r := []string{w.name, metric}
			for _, rep := range reps {
				r = append(r, f(rep))
			}
			res.Rows = append(res.Rows, r)
		}
		row("Running time (s)", func(r *engine.Report) string { return secs(r.RunningTime) })
		row("Map CPU / node (s)", func(r *engine.Report) string { return secs(r.MapCPUPerNode) })
		row("Reduce CPU / node (s)", func(r *engine.Report) string { return secs(r.ReduceCPUPerNode) })
		row("Map output / shuffle (GB)", func(r *engine.Report) string { return gb(r.MapOutputBytes) })
		row("Reduce spill (GB)", func(r *engine.Report) string { return gb(r.ReduceSpillBytes) })

		sm, mrh, inc := reps[0], reps[1], reps[2]
		switch w.name {
		case "sessionization":
			res.addFinding("sessionization: map CPU/node SM %ss vs hash %ss (paper: 936 vs 566 — sorting eliminated)",
				secs(sm.MapCPUPerNode), secs(inc.MapCPUPerNode))
			res.addFinding("sessionization: reduce spill SM %.1fGB, MR-hash %.1fGB, INC-hash %.1fGB (paper: 250, 256, 51)",
				float64(sm.ReduceSpillBytes)/1e9, float64(mrh.ReduceSpillBytes)/1e9, float64(inc.ReduceSpillBytes)/1e9)
			res.addFinding("sessionization: INC reduce progress at map finish %.2f vs SM %.2f (Fig 7a: INC tracks map until memory fills)",
				reduceAtMapFinish(inc), reduceAtMapFinish(sm))
		case "clickcount":
			res.addFinding("clickcount: hash spill 0 expected — SM %.2fGB, MR %.2fGB, INC %.2fGB (paper: 1.1, 0, 0)",
				float64(sm.ReduceSpillBytes)/1e9, float64(mrh.ReduceSpillBytes)/1e9, float64(inc.ReduceSpillBytes)/1e9)
			res.addFinding("clickcount: INC reduce progress at map finish %.2f vs MR-hash %.2f (Fig 7b: INC ~0.66, MR blocked ~0.33)",
				reduceAtMapFinish(inc), reduceAtMapFinish(mrh))
		case "frequsers":
			res.addFinding("frequsers: INC reduce progress at map finish %.2f (Fig 7c: keeps up with map via early output)",
				reduceAtMapFinish(inc))
		}
	}
	return res, nil
}

// runFig7d varies the sessionization state size on INC-hash.
func runFig7d(c Config) (*Result, error) {
	c = c.withDefaults()
	const data = 236e9
	cl := onePassSM(c, data)
	res := &Result{
		ID:     "fig7d",
		Title:  "INC-hash sessionization under growing key-state space",
		Header: []string{"state size", "running time (s)", "reduce spill (GB)", "reduce at map finish"},
	}
	// One fixed user pool (sized for the 0.5KB state): growing the
	// state size then shrinks how many states fit in memory, which is
	// exactly the paper's experiment.
	users := jobspec.SessionUsers(cl, 512)
	var spills []float64
	for _, state := range []int{512, 1024, 2048} {
		rep, err := c.run(c.Job(cl, engine.INCHash,
			jobspec.Params{Query: "sessionization", DataBytes: data, StateBytes: state, Users: users}))
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1fKB", float64(state)/1024),
			secs(rep.RunningTime),
			gb(rep.ReduceSpillBytes),
			fmt.Sprintf("%.2f", reduceAtMapFinish(rep)),
		})
		res.Series = append(res.Series, progressSeries(fmt.Sprintf("inc_%db", state), rep))
		spills = append(spills, float64(rep.ReduceSpillBytes))
	}
	res.addFinding("spill grows with state size: %.1f → %.1f → %.1f GB (paper Table 4: 51GB at 0.5KB → 203GB at 2KB)",
		spills[0]/1e9, spills[1]/1e9, spills[2]/1e9)
	return res, nil
}

// runTable4 compares INC-hash and DINC-hash on sessionization with
// 2KB states — the headline 3-orders-of-magnitude spill reduction.
func runTable4(c Config) (*Result, error) {
	c = c.withDefaults()
	const data = 236e9
	cl := onePassSM(c, data)
	users := jobspec.SessionUsers(cl, 512)
	res := &Result{
		ID:     "table4",
		Title:  "Sessionization: INC-hash (0.5KB, 2KB) vs DINC-hash (2KB)",
		Header: []string{"config", "running time (s)", "reduce spill (GB)", "map finish (s)", "reduce at map finish"},
	}
	type cfg struct {
		name  string
		pl    engine.Platform
		state int
	}
	var reps []*engine.Report
	for _, cc := range []cfg{
		{"INC (0.5KB)", engine.INCHash, 512},
		{"INC (2KB)", engine.INCHash, 2048},
		{"DINC (2KB)", engine.DINCHash, 2048},
	} {
		rep, err := c.run(c.Job(cl, cc.pl,
			jobspec.Params{Query: "sessionization", DataBytes: data, StateBytes: cc.state, Users: users}))
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		res.Rows = append(res.Rows, []string{
			cc.name, secs(rep.RunningTime), gb(rep.ReduceSpillBytes),
			secs(rep.MapFinishTime), fmt.Sprintf("%.2f", reduceAtMapFinish(rep)),
		})
		res.Series = append(res.Series, progressSeries(fmt.Sprintf("fig7e_%s_%d", rep.Platform, cc.state), rep))
	}
	inc2, dinc := reps[1], reps[2]
	ratio := float64(inc2.ReduceSpillBytes+1) / float64(dinc.ReduceSpillBytes+1)
	res.addFinding("DINC spill %.2fGB vs INC(2KB) %.1fGB — %.0f× less (paper: 0.1GB vs 203GB, ~3 orders of magnitude)",
		float64(dinc.ReduceSpillBytes)/1e9, float64(inc2.ReduceSpillBytes)/1e9, ratio)
	res.addFinding("DINC finishes %.0fs after maps (%.1f%% tail; paper: reducers finish as soon as mappers finish)",
		(dinc.RunningTime - dinc.MapFinishTime).Seconds(),
		100*(1-dinc.MapFinishTime.Seconds()/dinc.RunningTime.Seconds()))
	res.addFinding("DINC reduce progress tracks map: %.2f at map finish (Fig 7e)", reduceAtMapFinish(dinc))
	return res, nil
}

// runFig7f compares INC and DINC (and the SM baseline) on trigram
// counting, whose key distribution is much flatter than user ids.
func runFig7f(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := onePassSM(c, 156e9)
	// The paper notes the reduce memory holds ~1/30 of the trigram
	// states; trigram keys are near-unique in the tail, so the state
	// space scales with the data. The catalogue's modest vocabulary
	// keeps hot trigrams genuinely hot while the tail overflows memory.
	res := &Result{
		ID:     "fig7f",
		Title:  "Trigram counting (≥1000): SM vs INC-hash vs DINC-hash",
		Header: []string{"platform", "running time (s)", "reduce spill (GB)", "map output (GB)", "reduce at map finish"},
	}
	var reps []*engine.Report
	for _, pl := range []engine.Platform{engine.SortMerge, engine.INCHash, engine.DINCHash} {
		spec, err := c.Job(cl, pl, jobspec.Params{Query: "trigram", DataBytes: 156e9})
		if err == nil {
			// Distinct trigrams ≈ a quarter of the instances (ten per
			// 12-word line) with this vocabulary (calibrated): far
			// beyond reduce memory, with a hot head that mostly arrives
			// before memory fills — the paper's "memory holds 1/30 of
			// the states, hot keys resident" regime.
			spec.Hints.DistinctKeys = int64(float64(records(spec.Input)*10) / 4)
		}
		rep, err := c.run(spec, err)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
		res.Rows = append(res.Rows, []string{
			pl.String(), secs(rep.RunningTime), gb(rep.ReduceSpillBytes),
			gb(rep.MapOutputBytes), fmt.Sprintf("%.2f", reduceAtMapFinish(rep)),
		})
		res.Series = append(res.Series, progressSeries("trigram_"+pl.String(), rep))
	}
	sm, inc, dinc := reps[0], reps[1], reps[2]
	res.addFinding("hash beats SM: INC %ss / DINC %ss vs SM %ss (paper: 4100-4400s vs 9023s)",
		secs(inc.RunningTime), secs(dinc.RunningTime), secs(sm.RunningTime))
	res.addFinding("flat distribution: DINC spill %.1fGB ≈ INC %.1fGB (paper: DINC does not outperform INC for trigrams)",
		float64(dinc.ReduceSpillBytes)/1e9, float64(inc.ReduceSpillBytes)/1e9)
	res.addFinding("spilled fraction of map output: INC %.0f%%, DINC %.0f%% (paper: less than half the input spilled)",
		100*float64(inc.ReduceSpillBytes)/float64(inc.MapOutputBytes),
		100*float64(dinc.ReduceSpillBytes)/float64(dinc.MapOutputBytes))
	return res, nil
}
