package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/model"
)

// stockCluster is default-settings Hadoop: 64MB chunks, merge factor
// 10 (io.sort.factor's default), R=4.
func (c Config) stockCluster() engine.ClusterConfig {
	cl := c.paperCluster()
	cl.MergeFactor = 10
	return cl
}

// onePassSM applies the §3.2 model-driven tuning for a sessionization
// of the given logical size — chunk sized to the map buffer and a
// one-pass merge factor: the optimized ("1-pass SM") cluster of Fig 4
// and the sort-merge baseline throughout §6.
func onePassSM(c Config, dataLogical float64) engine.ClusterConfig {
	cl := c.paperCluster()
	m := cl.Model
	w := model.Workload{D: float64(c.sized(dataLogical)), Km: 1.15, Kr: 1}
	// Runs spill at ~2/3 of the shuffle buffer (Hadoop's
	// shuffle.merge.percent), so the one-pass factor must cover the
	// runs that actually materialize.
	h := model.Hardware{
		N:  cl.Nodes,
		Bm: float64(m.LogicalBytes(cl.MapBuffer)),
		Br: float64(m.LogicalBytes(cl.ReduceBuffer)) * 2 / 3,
	}
	cl.MergeFactor = model.OnePassFactor(w, h, cl.R)
	if cl.MergeFactor < 4 {
		cl.MergeFactor = 4
	}
	return cl
}

func init() {
	register("table1", "Table 1: click-analysis workloads on stock Hadoop", runTable1)
	register("fig2", "Fig 2(a-c): stock Hadoop timeline, CPU util, iowait (sessionization)", runFig2)
	register("fig2d", "Fig 2(d): intermediate data on SSD", runFig2d)
	register("fig2ef", "Fig 2(e,f): MapReduce Online (HOP) util and iowait", runFig2ef)
	register("fig4ab", "Fig 4(a,b): analytical model vs measured time over (C,F)", runFig4ab)
	register("fig4c", "Fig 4(c): incremental progress, default vs optimized Hadoop", runFig4c)
	register("fig4de", "Fig 4(d,e): optimized Hadoop CPU util and iowait", runFig4de)
	register("fig4f", "Fig 4(f): HOP vs stock progress (sessionization)", runFig4f)
	register("sec32r", "§3.2(3): reducers per node, R=4 vs R=8", runSec32R)
}

// runTable1 reproduces Table 1: sessionization, page frequency, and
// clicks-per-user on stock Hadoop, reporting the I/O volumes and
// running time.
func runTable1(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.stockCluster()
	res := &Result{
		ID:     "table1",
		Title:  "Workloads in click analysis and Hadoop running time (stock SM)",
		Header: []string{"metric", "sessionization", "page-frequency", "clicks-per-user"},
	}
	var reps []*engine.Report
	for _, w := range []struct {
		query string
		data  float64
	}{{"sessionization", 256e9}, {"pagefreq", 508e9}, {"clickcount", 256e9}} {
		rep, err := c.run(c.Job(cl, engine.SortMerge, jobspec.Params{Query: w.query, DataBytes: w.data}))
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}
	row := func(name string, f func(*engine.Report) string) {
		r := []string{name}
		for _, rep := range reps {
			r = append(r, f(rep))
		}
		res.Rows = append(res.Rows, r)
	}
	row("Input (GB)", func(r *engine.Report) string { return gb(r.InputBytes) })
	row("Map output (GB)", func(r *engine.Report) string { return gb(r.MapOutputBytes) })
	row("Reduce spill (GB)", func(r *engine.Report) string { return gb(r.ReduceSpillBytes) })
	row("Reduce output (GB)", func(r *engine.Report) string { return gb(r.OutputBytes) })
	row("Running time (s)", func(r *engine.Report) string { return secs(r.RunningTime) })

	res.addFinding("sessionization reduce spill %.1fGB vs input %.1fGB (paper: 370GB vs 256GB — spill exceeds input)",
		float64(reps[0].ReduceSpillBytes)/1e9, float64(reps[0].InputBytes)/1e9)
	res.addFinding("combiner workloads spill %.2fGB and %.2fGB (paper: 0.2GB, 1.4GB — orders of magnitude below sessionization)",
		float64(reps[1].ReduceSpillBytes)/1e9, float64(reps[2].ReduceSpillBytes)/1e9)
	res.addFinding("running-time order: sessionization %ss > page-frequency %ss > clicks %ss (paper: 4860 > 2400 > 1440)",
		secs(reps[0].RunningTime), secs(reps[1].RunningTime), secs(reps[2].RunningTime))
	return res, nil
}

// runFig2 reproduces the Fig 2(a-c) series: the stock-Hadoop
// sessionization timeline with its post-map CPU dip and iowait spike.
func runFig2(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.stockCluster()
	rep, err := c.run(c.Job(cl, engine.SortMerge, sessionization(256e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig2",
		Title:  "Stock Hadoop sessionization: task timeline, CPU util, iowait",
		Series: []Series{utilSeries("stock_sm", rep), progressSeries("stock_sm_progress", rep)},
	}
	peak := peakIOWaitAfter(rep, rep.MapFinishTime)
	res.addFinding("iowait peaks at %.0f%% after maps finish (t=%s) — the multi-pass merge blocking window (paper Fig 2c)",
		peak*100, rep.MapFinishTime.Round(time.Second))
	res.addFinding("map finish %s, job end %s: reduce-side tail is %.0f%% of the job (paper: roughly even split)",
		rep.MapFinishTime.Round(time.Second), rep.RunningTime.Round(time.Second),
		100*(1-rep.MapFinishTime.Seconds()/rep.RunningTime.Seconds()))
	return res, nil
}

// runFig2d: intermediates on SSD shorten the job but do not remove the
// blocking or the iowait spike.
func runFig2d(c Config) (*Result, error) {
	c = c.withDefaults()
	hdd := c.stockCluster()
	ssd := c.stockCluster()
	ssd.SSDIntermediate = true
	repHDD, err := c.run(c.Job(hdd, engine.SortMerge, sessionization(256e9)))
	if err != nil {
		return nil, err
	}
	repSSD, err := c.run(c.Job(ssd, engine.SortMerge, sessionization(256e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig2d",
		Title:  "Stock Hadoop sessionization with intermediate data on SSD",
		Header: []string{"config", "running time (s)", "peak iowait after maps"},
		Rows: [][]string{
			{"HDD only", secs(repHDD.RunningTime), fmt.Sprintf("%.2f", peakIOWaitAfter(repHDD, repHDD.MapFinishTime))},
			{"SSD intermediates", secs(repSSD.RunningTime), fmt.Sprintf("%.2f", peakIOWaitAfter(repSSD, repSSD.MapFinishTime))},
		},
		Series: []Series{utilSeries("ssd_intermediates", repSSD)},
	}
	res.addFinding("SSD reduces running time %s→%s but post-map iowait persists at %.0f%% (paper: change reduces time, does not eliminate the bottleneck)",
		secs(repHDD.RunningTime), secs(repSSD.RunningTime), 100*peakIOWaitAfter(repSSD, repSSD.MapFinishTime))
	return res, nil
}

// runFig2ef: the HOP pipelining prototype shows the same mid-job
// blocking signature.
func runFig2ef(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.stockCluster()
	rep, err := c.run(c.Job(cl, engine.HOP, sessionization(256e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig2ef",
		Title:  "MapReduce Online (HOP) sessionization: CPU util and iowait",
		Series: []Series{utilSeries("hop", rep), progressSeries("hop_progress", rep)},
	}
	res.addFinding("HOP iowait still peaks at %.0f%% mid-job (paper Fig 2f: blocking and I/O of multi-pass merge persist)",
		100*peakIOWaitAfter(rep, rep.MapFinishTime/2))
	return res, nil
}

// runFig4ab sweeps (C, F) for sessionization at D=97GB and compares
// the model's T against measured running time.
func runFig4ab(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.paperCluster()
	m := cl.Model
	// §3.2 uses B_r=260MB; we shrink slightly further so the initial
	// run count per reducer (~21) sits clearly between the one-pass
	// thresholds of F=8 and F=16 rather than on the knife edge, the
	// regime the paper's Fig 4(b) curves actually show.
	cl.ReduceBuffer = m.ScaleBytes(200e6)
	w := model.Workload{D: float64(c.sized(97e9)), Km: 1.15, Kr: 1}
	h := model.Hardware{
		N:  cl.Nodes,
		Bm: float64(m.LogicalBytes(cl.MapBuffer)),
		Br: float64(m.LogicalBytes(cl.ReduceBuffer)),
	}
	cs := []float64{16e6, 32e6, 64e6, 128e6, 256e6}
	fs := []int{4, 8, 16}
	if c.Quick {
		cs = []float64{32e6, 128e6, 256e6}
		fs = []int{4, 16}
	}
	res := &Result{
		ID:     "fig4ab",
		Title:  "Model time T vs measured running time over chunk size C and merge factor F",
		Header: []string{"C (MB)", "F", "model T (s)", "measured (s)"},
	}
	var modelT, measured []float64
	consts := model.PaperConstants()
	for _, f := range fs {
		for _, cSize := range cs {
			p := model.Params{R: cl.R, C: cSize, F: f}
			t := model.TimeCost(w, h, p, consts)
			run := cl
			run.MergeFactor = f
			rep, err := c.run(c.Job(run, engine.SortMerge,
				jobspec.Params{Query: "sessionization", DataBytes: 97e9, ChunkBytes: cSize}))
			if err != nil {
				return nil, err
			}
			modelT = append(modelT, t)
			measured = append(measured, rep.RunningTime.Seconds())
			res.Rows = append(res.Rows, []string{
				fmt.Sprintf("%.0f", cSize/1e6), fmt.Sprintf("%d", f),
				fmt.Sprintf("%.0f", t), secs(rep.RunningTime),
			})
		}
	}
	rho := spearman(modelT, measured)
	res.addFinding("Spearman rank correlation model-vs-measured over the (C,F) grid: %.2f (paper: 'very similar trends')", rho)
	// Best measured point should be near the model's pick.
	best := model.Optimize(w, h, cl.R, cs, fs, consts)
	res.addFinding("model optimum %s; paper's rule: largest C with C·Km ≤ Bm, one-pass F", best)
	return res, nil
}

// runFig4c compares the Definition 1 progress of default vs optimized
// Hadoop against the optimal (reduce tracks map) line.
func runFig4c(c Config) (*Result, error) {
	c = c.withDefaults()
	def := c.stockCluster()
	opt := onePassSM(c, 240e9)
	repDef, err := c.run(c.Job(def, engine.SortMerge, sessionization(240e9)))
	if err != nil {
		return nil, err
	}
	repOpt, err := c.run(c.Job(opt, engine.SortMerge, sessionization(240e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig4c",
		Title:  "Progress of incremental processing: default vs optimized Hadoop",
		Header: []string{"config", "running time (s)", "reduce progress at map finish"},
		Rows: [][]string{
			{"default", secs(repDef.RunningTime), fmt.Sprintf("%.2f", reduceAtMapFinish(repDef))},
			{"optimized", secs(repOpt.RunningTime), fmt.Sprintf("%.2f", reduceAtMapFinish(repOpt))},
		},
		Series: []Series{
			progressSeries("default_sm", repDef),
			progressSeries("optimized_sm", repOpt),
		},
	}
	gain := 100 * (1 - repOpt.RunningTime.Seconds()/repDef.RunningTime.Seconds())
	res.addFinding("optimized Hadoop improves running time by %.0f%% (paper: 14%%, 4860s→4187s)", gain)
	res.addFinding("optimized reduce progress reaches only %.2f at map finish — far from the optimal line tracking map (paper: stuck near 0.33)",
		reduceAtMapFinish(repOpt))
	return res, nil
}

// runFig4de captures the optimized-Hadoop utilization series.
func runFig4de(c Config) (*Result, error) {
	c = c.withDefaults()
	opt := onePassSM(c, 240e9)
	rep, err := c.run(c.Job(opt, engine.SortMerge, sessionization(240e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig4de",
		Title:  "Optimized Hadoop sessionization: CPU util and iowait",
		Series: []Series{utilSeries("optimized_sm", rep)},
	}
	res.addFinding("iowait spike after maps remains at %.0f%% under one-pass merge (paper Fig 4e: blocking persists)",
		100*peakIOWaitAfter(rep, rep.MapFinishTime))
	return res, nil
}

// runFig4f compares HOP pipelining against stock sort-merge.
func runFig4f(c Config) (*Result, error) {
	c = c.withDefaults()
	cl := c.stockCluster()
	sm, err := c.run(c.Job(cl, engine.SortMerge, sessionization(240e9)))
	if err != nil {
		return nil, err
	}
	hop, err := c.run(c.Job(cl, engine.HOP, sessionization(240e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "fig4f",
		Title:  "HOP vs stock Hadoop: progress (sessionization)",
		Header: []string{"config", "running time (s)", "reduce at map finish"},
		Rows: [][]string{
			{"stock SM", secs(sm.RunningTime), fmt.Sprintf("%.2f", reduceAtMapFinish(sm))},
			{"HOP", secs(hop.RunningTime), fmt.Sprintf("%.2f", reduceAtMapFinish(hop))},
		},
		Series: []Series{progressSeries("stock_sm", sm), progressSeries("hop", hop)},
	}
	gain := 100 * (1 - hop.RunningTime.Seconds()/sm.RunningTime.Seconds())
	res.addFinding("HOP gains %.1f%% over stock (paper: ~5%%; small — pipelining only rebalances sort-merge work)", gain)
	res.addFinding("HOP reduce progress at map finish %.2f still far behind map (paper Fig 4f)", reduceAtMapFinish(hop))
	return res, nil
}

// runSec32R compares R=4 (one reducer wave) with R=8 (two waves).
func runSec32R(c Config) (*Result, error) {
	c = c.withDefaults()
	r4 := onePassSM(c, 97e9)
	r8 := onePassSM(c, 97e9)
	r8.R = 8
	rep4, err := c.run(c.Job(r4, engine.SortMerge, sessionization(97e9)))
	if err != nil {
		return nil, err
	}
	rep8, err := c.run(c.Job(r8, engine.SortMerge, sessionization(97e9)))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "sec32r",
		Title:  "Reducers per node: R=4 (one wave) vs R=8 (two waves)",
		Header: []string{"R", "running time (s)", "shuffle fetches from memory", "from disk"},
		Rows: [][]string{
			{"4", secs(rep4.RunningTime), fmt.Sprintf("%d", rep4.MemShuffleFetches), fmt.Sprintf("%d", rep4.DiskShuffleFetches)},
			{"8", secs(rep8.RunningTime), fmt.Sprintf("%d", rep8.MemShuffleFetches), fmt.Sprintf("%d", rep8.DiskShuffleFetches)},
		},
	}
	res.addFinding("R=8 runs %ss vs R=4 %ss: second-wave reducers fetch %d outputs from disk (paper: 4723s vs 4187s)",
		secs(rep8.RunningTime), secs(rep4.RunningTime), rep8.DiskShuffleFetches)
	return res, nil
}
