// Command bench is the repository's benchmark: four end-to-end
// workloads over a child onepassd and the onepass library, the
// correctness checks that make their numbers mean something, and — on
// a traced run — spans around every call into a layer's public
// functions with the per-layer metrics derived from them. See
// README.md.
//
//	go run -C bench . -workload ingest-sat -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(benchDir string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(benchDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// sortedNames lists a metric set's names in order.
func sortedNames(m metrics) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report prints the chosen metric set as a table, any failed checks,
// and the result line.
func report(cfg config, res *result) error {
	set := res.e2e
	if cfg.trace {
		set = res.layer
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, name := range sortedNames(set) {
		m := set[name]
		line := fmt.Sprintf("  %-32s %16.6g %s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Println(line)
	}
	for _, p := range res.problems {
		fmt.Println("  FAILED CHECK:", p)
	}
	line, err := json.Marshal(resultLine{
		Correct: len(res.problems) == 0, Attempted: res.attempted, Failed: res.failed, Metrics: set,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// selfcheck runs the workload twice on this build and prints, for each
// end-to-end metric, how far the two runs are apart against the bound
// BENCHMARK.json allows a later change.
func selfcheck(cfg config) (ok bool, err error) {
	b, err := readBenchmarkFile(cfg.benchDir)
	if err != nil {
		return false, err
	}
	var runs [2]*result
	for i := range runs {
		if runs[i], err = run(cfg); err != nil {
			return false, err
		}
	}
	ok = true
	fmt.Printf("selfcheck %s  seed %d  seconds %g\n", cfg.workload, cfg.seed, cfg.seconds)
	for _, m := range b.EndToEnd {
		a, c := runs[0].e2e[m.Name].Value, runs[1].e2e[m.Name].Value
		worse := (c - a) / a // the second run against the first, as the driver compares
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict, ok = "OUTSIDE BOUND", false
		}
		fmt.Printf("  %-16s %14.6g %14.6g %-10s %+7.2f%% worse, bound %.0f%%  %s\n",
			m.Name, a, c, m.Unit, 100*worse, 100*m.Bound, verdict)
	}
	for _, r := range runs {
		for _, p := range r.problems {
			fmt.Println("  FAILED CHECK:", p)
			ok = false
		}
	}
	return ok, nil
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all|"+strings.Join(workloadNames, "|"))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 30, "length of the measured window")
	trace := flag.Int("trace", 0, "1: record spans, run the layer probes, report per-layer metrics")
	check := flag.Bool("selfcheck", false, "run twice and compare the end-to-end metrics against their bounds")
	flag.Parse()

	benchDir, err := os.Getwd()
	if err == nil {
		_, err = os.Stat(filepath.Join(benchDir, "..", "cmd", "onepassd"))
	}
	if err != nil {
		fatal(fmt.Errorf("run from the benchmark's directory (go run -C bench .): %v", err))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	failed := false
	for _, name := range names {
		cfg := config{workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes, benchDir: benchDir}
		if *check {
			ok, err := selfcheck(cfg)
			if err != nil {
				fatal(err)
			}
			failed = failed || !ok
			continue
		}
		res, err := run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := report(cfg, res); err != nil {
			fatal(err)
		}
		failed = failed || len(res.problems) > 0
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
