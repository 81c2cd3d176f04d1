package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// goodArgs returns a valid argument set; tests mutate one field each.
type argSet struct {
	addr     string
	dir      string
	query    string
	seal     int64
	ckpt     int64
	drain    time.Duration
	addrFile string
}

func goodArgs(t *testing.T) argSet {
	return argSet{
		addr:  "127.0.0.1:0",
		dir:   t.TempDir(),
		query: "clickcount",
		seal:  64 << 20,
		ckpt:  256,
		drain: 30 * time.Second,
	}
}

func build(a argSet) error {
	_, _, err := buildConfig(a.addr, a.dir, a.query, a.seal, a.ckpt, a.drain, a.addrFile)
	return err
}

func TestBuildConfigValid(t *testing.T) {
	a := goodArgs(t)
	cfg, opts, err := buildConfig(a.addr, a.dir, a.query, a.seal, a.ckpt, a.drain, "addr.txt")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dir != a.dir || cfg.QueryName != "clickcount" || cfg.NewQuery == nil || cfg.Validate == nil {
		t.Fatalf("config not wired: %+v", cfg)
	}
	if cfg.SealBytes != a.seal || cfg.CheckpointEvery != a.ckpt {
		t.Fatalf("sizes not wired: %+v", cfg)
	}
	if opts.Addr != a.addr || opts.AddrFile != "addr.txt" || opts.DrainTimeout != a.drain {
		t.Fatalf("options not wired: %+v", opts)
	}
	// Disabled checkpointing is a valid configuration, not an error.
	a.ckpt = -1
	if err := build(a); err != nil {
		t.Fatalf("negative -checkpoint-every should disable, got %v", err)
	}
}

// TestBuildConfigErrorsNameFlag asserts each validation failure names
// the offending flag so the operator knows what to fix.
func TestBuildConfigErrorsNameFlag(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*argSet)
		wantSub string
	}{
		{"missing wal-dir", func(a *argSet) { a.dir = "" }, "-wal-dir"},
		{"bad addr", func(a *argSet) { a.addr = "no-port" }, `bad -addr "no-port"`},
		{"unknown query", func(a *argSet) { a.query = "median" }, `bad -query "median"`},
		{"zero seal", func(a *argSet) { a.seal = 0 }, "bad -seal-bytes 0"},
		{"negative seal", func(a *argSet) { a.seal = -4 }, "bad -seal-bytes -4"},
		{"zero checkpoint", func(a *argSet) { a.ckpt = 0 }, "bad -checkpoint-every 0"},
		{"zero drain", func(a *argSet) { a.drain = 0 }, "bad -drain-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := goodArgs(t)
			tc.mutate(&a)
			err := build(a)
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not name the flag (%q)", err, tc.wantSub)
			}
		})
	}
}

func TestBuildConfigAllQueries(t *testing.T) {
	for _, q := range []string{"sessionization", "clickcount", "frequsers", "pagefreq", "trigram"} {
		a := goodArgs(t)
		a.query = q
		if err := build(a); err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
	}
}

func TestBuildSchedConfig(t *testing.T) {
	// Unset -jobs-dir disables the job API.
	cfg, err := buildSchedConfig("", 2, 64)
	if err != nil || cfg != nil {
		t.Fatalf("disabled: cfg=%v err=%v", cfg, err)
	}
	dir := t.TempDir()
	cfg, err = buildSchedConfig(dir, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Dir != dir || cfg.DefaultLimits.MaxConcurrent != 3 || cfg.DefaultLimits.MaxQueued != 9 {
		t.Fatalf("config not wired: %+v", cfg)
	}
	if _, err := buildSchedConfig(dir, 0, 9); err == nil || !strings.Contains(err.Error(), "-jobs-max-concurrent") {
		t.Fatalf("zero concurrent: %v", err)
	}
	if _, err := buildSchedConfig(dir, 3, -1); err == nil || !strings.Contains(err.Error(), "-jobs-max-queued") {
		t.Fatalf("negative queued: %v", err)
	}
}

// TestMemoryBudgetFlags: -memory-budget sizes the one budget and
// -max-inflight-bytes, its name when it bounded ingest alone, is an
// alias; naming both is an error that names both, and a budget must be
// positive.
func TestMemoryBudgetFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    int64
		wantErr []string
	}{
		{"default", nil, 64 << 20, nil},
		{"memory-budget", []string{"-memory-budget", "1000"}, 1000, nil},
		{"alias", []string{"-max-inflight-bytes", "2000"}, 2000, nil},
		{"both", []string{"-memory-budget", "1000", "-max-inflight-bytes", "2000"}, 0, []string{"-memory-budget", "-max-inflight-bytes"}},
		{"zero budget", []string{"-memory-budget", "0"}, 0, []string{"bad -memory-budget 0"}},
		{"zero inflight", []string{"-max-inflight-bytes", "0"}, 0, []string{"bad -max-inflight-bytes 0"}},
		{"negative inflight", []string{"-max-inflight-bytes", "-5"}, 0, []string{"bad -max-inflight-bytes -5"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, f := newFlags()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := memoryBudget(fs, f)
			if tc.wantErr == nil {
				if err != nil || got != tc.want {
					t.Fatalf("budget %d, %v; want %d", got, err, tc.want)
				}
				return
			}
			if err == nil {
				t.Fatalf("budget %d, want an error", got)
			}
			for _, sub := range tc.wantErr {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q does not name %s", err, sub)
				}
			}
		})
	}
}

// TestGOMEMLIMITLeftToTheOperator: with GOMEMLIMIT set the daemon wires
// no soft limit of its own and says so once; without it, it does and
// says nothing. The returned setter is never called here, so the test
// leaves the process's GC settings alone.
func TestGOMEMLIMITLeftToTheOperator(t *testing.T) {
	var stderr bytes.Buffer
	if set := softLimit("512MiB", &stderr); set != nil {
		t.Error("GOMEMLIMIT set, but the daemon wires its own soft limit")
	}
	if got := stderr.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "GOMEMLIMIT=512MiB") {
		t.Errorf("stderr %q: want one line naming GOMEMLIMIT", got)
	}
	stderr.Reset()
	if set := softLimit("", &stderr); set == nil || stderr.Len() != 0 {
		t.Errorf("GOMEMLIMIT unset: setter wired %v, stderr %q", set != nil, stderr.String())
	}
}
