// Package experiments regenerates every table and figure of the
// paper's evaluation (§2.3, §3.2, §6): each experiment is a named,
// self-contained recipe that builds the workload, configures the
// cluster, runs the jobs, and reports the same rows or series the
// paper does. cmd/benchtables drives them from the command line;
// bench_test.go wraps each in a testing.B benchmark.
//
// Numbers are reported at logical (paper) scale; the Scale knob trades
// fidelity for speed (1/512 by default: 1GB of physical data stands in
// for 512GB). Shapes — who wins, by what factor, where crossovers fall
// — are the reproduction target, not absolute seconds.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/metrics"
)

// Config controls an experiment run.
type Config struct {
	// Scale is the physical:logical data ratio (default 1/512).
	Scale float64
	// Quick shrinks datasets and grids for smoke runs and benchmarks.
	Quick bool
	// Seed drives all synthetic data.
	Seed int64
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Workers is the threads a job computes on (engine
	// ClusterConfig.Parallelism): 0 = GOMAXPROCS, 1 = the DES kernel's
	// thread alone. Results are identical for any value; only
	// wall-clock time changes.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0 / 512
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// sized returns logical bytes, shrunk in quick mode.
func (c Config) sized(logical float64) int64 {
	if c.Quick {
		logical /= 16
	}
	return int64(logical)
}

// Series is one named curve: rows of columns, first row is the header.
type Series struct {
	Name   string
	Header []string
	Rows   [][]string
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Series []Series
	// Findings are one-line measured statements checked against the
	// paper's claims (the EXPERIMENTS.md entries).
	Findings []string
}

func (r *Result) addFinding(format string, args ...interface{}) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Experiment is a registered reproduction recipe.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Result, error)
}

var registry []Experiment

func register(id, title string, run func(Config) (*Result, error)) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in registration (paper) order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared setup helpers ---

// paperCluster returns the paper's cluster at the configured scale.
func (c Config) paperCluster() engine.ClusterConfig {
	cl := jobspec.ClusterAt(c.Scale)
	if c.Quick {
		cl.ProgressInterval = 2 * time.Second
	}
	cl.Parallelism = c.Workers
	return cl
}

const chunk64MB = 64e6

// Job builds one figure's job through the builder every tool uses
// (jobspec): the catalogue's query, hints and synthetic input for p,
// on the figure's own cluster and platform. The harness fixes the seed
// and shrinks the logical size in quick mode; chunks are 64MB and
// session states 512 bytes (which also sizes an unstated user pool)
// unless p says otherwise. A figure states what it varies and, where
// it knows a hint better than the catalogue, overrides it on the
// result.
func (c Config) Job(cl engine.ClusterConfig, pl engine.Platform, p jobspec.Params) (engine.JobSpec, error) {
	p.Platform = pl.String()
	p.DataBytes = float64(c.sized(p.DataBytes))
	if p.ChunkBytes == 0 {
		p.ChunkBytes = chunk64MB
	}
	if p.StateBytes == 0 {
		p.StateBytes = 512
	}
	p.Seed = c.Seed
	job, newQuery, err := p.On(cl)
	if err == nil {
		job.Query = newQuery()
	}
	return job, err
}

// sessionization is the standard sessionization run of a logical size.
func sessionization(data float64) jobspec.Params {
	return jobspec.Params{Query: "sessionization", DataBytes: data}
}

// records is the record count of a catalogue input.
func records(in dfs.Input) int64 {
	return in.(interface{ TotalRecords() int64 }).TotalRecords()
}

// run executes a built job and logs one summary line; a job that
// failed to build hands its error on, so c.run(c.Job(...)) reads as
// one step.
func (c Config) run(spec engine.JobSpec, err error) (*engine.Report, error) {
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rep, err := engine.Run(spec)
	if err != nil {
		return nil, err
	}
	c.logf("  %-14s %-10s vtime=%-10s spill=%-8s (wall %.1fs)",
		rep.Query, rep.Platform, rep.RunningTime.Round(time.Second),
		engine.GB(rep.ReduceSpillBytes), time.Since(start).Seconds())
	return rep, nil
}

// --- formatting helpers ---

func secs(d time.Duration) string { return fmt.Sprintf("%.0f", d.Seconds()) }

func gb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/1e9) }

// progressSeries converts a report's progress curve into a Series.
func progressSeries(name string, rep *engine.Report) Series {
	s := Series{
		Name:   name,
		Header: []string{"t_sec", "map", "reduce", "shuffle", "fn", "out"},
	}
	for _, p := range rep.Progress {
		s.Rows = append(s.Rows, []string{
			fmt.Sprintf("%.0f", p.T.Seconds()),
			fmt.Sprintf("%.4f", p.Map),
			fmt.Sprintf("%.4f", p.Reduce),
			fmt.Sprintf("%.4f", p.Shuffle),
			fmt.Sprintf("%.4f", p.Fn),
			fmt.Sprintf("%.4f", p.Out),
		})
	}
	return s
}

// utilSeries converts raw samples into the CPU/iowait/timeline curves
// of Fig 2 and Fig 4(d,e).
func utilSeries(name string, rep *engine.Report) Series {
	s := Series{
		Name:   name,
		Header: []string{"t_sec", "cpu_util", "iowait", "read_MBps", "map_tasks", "shuffle_tasks", "merge_tasks", "reduce_tasks"},
	}
	for _, sm := range rep.Samples {
		s.Rows = append(s.Rows, []string{
			fmt.Sprintf("%.0f", sm.T.Seconds()),
			fmt.Sprintf("%.3f", sm.CPUUtil),
			fmt.Sprintf("%.3f", sm.IOWait),
			fmt.Sprintf("%.1f", sm.ReadMBps),
			fmt.Sprintf("%d", sm.Tasks[metrics.PhaseMap]),
			fmt.Sprintf("%d", sm.Tasks[metrics.PhaseShuffle]),
			fmt.Sprintf("%d", sm.Tasks[metrics.PhaseMerge]),
			fmt.Sprintf("%d", sm.Tasks[metrics.PhaseReduce]),
		})
	}
	return s
}

// reduceAtMapFinish returns the Definition 1 reduce progress at the
// moment the last map task completed.
func reduceAtMapFinish(rep *engine.Report) float64 {
	best := 0.0
	for _, p := range rep.Progress {
		if p.T <= rep.MapFinishTime {
			best = p.Reduce
		}
	}
	return best
}

// peakIOWaitAfter returns the maximum iowait at or after t.
func peakIOWaitAfter(rep *engine.Report, t time.Duration) float64 {
	peak := 0.0
	for _, s := range rep.Samples {
		if s.T >= t && s.IOWait > peak {
			peak = s.IOWait
		}
	}
	return peak
}

// spearman computes the rank correlation between two slices.
func spearman(a, b []float64) float64 {
	ra, rb := ranks(a), ranks(b)
	n := float64(len(a))
	if n < 2 {
		return 0
	}
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	r := make([]float64, len(x))
	for rank, i := range idx {
		r[i] = float64(rank)
	}
	return r
}
