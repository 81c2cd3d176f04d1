package simfuzz

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestGenDeterministic pins the generator contract every replay seed
// depends on: the same seed yields the same case, different seeds
// differ, and generated cases are already normalized (Normalize is a
// fixpoint).
func TestGenDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 9, 15, 42, 1 << 40} {
		a, b := Gen(seed), Gen(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Gen(%d) is not deterministic", seed)
		}
		n := a.Clone()
		n.Normalize()
		if !reflect.DeepEqual(a, n) {
			t.Errorf("Gen(%d) is not a Normalize fixpoint", seed)
		}
	}
	if reflect.DeepEqual(Gen(1), Gen(2)) {
		t.Error("Gen(1) == Gen(2): seeds do not vary the case")
	}
}

// sweepSize returns how many cases the randomized sweep runs: 200 in
// -short mode (the CI smoke), more otherwise, overridable with
// SIMFUZZ_CASES (and SIMFUZZ_SEED for the window start).
func sweepSize(t *testing.T) (first int64, n int) {
	first, n = 1, 500
	if testing.Short() {
		n = 200
	}
	if s := os.Getenv("SIMFUZZ_CASES"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad SIMFUZZ_CASES %q: %v", s, err)
		}
		n = v
	}
	if s := os.Getenv("SIMFUZZ_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SIMFUZZ_SEED %q: %v", s, err)
		}
		first = v
	}
	return first, n
}

// TestSweep is the randomized differential sweep: every generated case
// must agree with the reference oracle on every platform, satisfy the
// Report accounting identities, and replay identically across worker
// counts. On failure the case is shrunk and printed as a ready-to-run
// repro.
func TestSweep(t *testing.T) {
	first, n := sweepSize(t)
	failed := 0
	for i := 0; i < n; i++ {
		seed := first + int64(i)
		c := Gen(seed)
		v := RunCase(c)
		if v.OK() {
			continue
		}
		failed++
		shrunk, sv := Shrink(c, 80)
		t.Errorf("seed %d failed:\n%s\n\nshrunk repro:\n%s",
			seed, v.String(), RenderRepro(shrunk, sv))
		if failed >= 3 {
			t.Fatalf("stopping the sweep after %d failing seeds", failed)
		}
	}
	t.Logf("swept %d cases starting at seed %d", n, first)
}

// TestMutationCheck proves the harness catches real bugs: in the
// spill-drop-run mutant build (mutant_test.go, a dropped sort-merge
// spill run), a pinned seed window must produce at least one failing
// case, and shrinking must keep it failing while reducing it to a
// single platform.
func TestMutationCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation scan is the long job's concern")
	}
	if plantedMutant == "" {
		runInMutant(t, spillDropRun, "^TestMutationCheck$")
		return
	}
	for seed := int64(1); seed <= 30; seed++ {
		c := Gen(seed)
		v := RunCase(c)
		if v.OK() {
			continue
		}
		shrunk, sv := Shrink(c, 60)
		if sv.OK() {
			t.Fatalf("seed %d: shrink lost the failure", seed)
		}
		if len(shrunk.Platforms) != 1 {
			t.Errorf("seed %d: shrunk case still runs %d platforms", seed, len(shrunk.Platforms))
		}
		t.Logf("mutation caught at seed %d, shrunk to: %s", seed, sv.String())
		return
	}
	t.Fatal("planted mutation survived 30 seeds undetected — the harness is blind")
}

// TestCorpusReplay replays every committed corpus entry. Entries are
// shrunk repros of real bugs (must pass now) or planted-mutation cases
// (must fail in their mutant build, so they replay in a child test
// built as that mutant). Each entry is run twice and the verdicts must
// be identical: failure reporting itself has to be deterministic for
// replays to be debuggable.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty corpus: testdata/corpus must hold the committed repros")
	}
	mutations := 0
	for _, e := range entries {
		t.Run(e.Name, func(t *testing.T) {
			if e.Mutation != plantedMutant {
				runInMutant(t, e.Mutation, "^TestCorpusReplay$/^"+e.Name+"$")
				return
			}
			v1 := RunCase(e.Case)
			v2 := RunCase(e.Case)
			if !reflect.DeepEqual(v1, v2) {
				t.Fatalf("verdict is not deterministic:\nfirst:  %s\nsecond: %s", v1.String(), v2.String())
			}
			if v1.OK() == e.ExpectFailure {
				t.Fatalf("expect_failure=%v, got verdict:\n%s", e.ExpectFailure, v1.String())
			}
		})
		if e.Mutation != "" {
			mutations++
		}
	}
	if mutations == 0 {
		t.Error("corpus has no planted-mutation entry: the harness's bug-detection proof is missing")
	}
}

// TestRenderRepro pins what a failing sweep case is chased with: the
// replay line is the go test spelling of one seed, and the standalone
// regression test is a file of this package that go/parser accepts.
func TestRenderRepro(t *testing.T) {
	v := Verdict{Failures: []Failure{{Platform: "1-pass-sm/clean", Check: "oracle", Detail: "missing output"}}}
	out := RenderRepro(Gen(8), v)
	replay := "failing case (replay: SIMFUZZ_SEED=8 SIMFUZZ_CASES=1 go test -run TestSweep ./internal/simfuzz/):\n"
	if !strings.HasPrefix(out, replay) {
		t.Errorf("repro does not start with the replay line %q:\n%s", replay, out)
	}
	_, src, ok := strings.Cut(out, "standalone regression test:\n")
	if !ok {
		t.Fatalf("repro has no standalone test:\n%s", out)
	}
	f, err := parser.ParseFile(token.NewFileSet(), "seed8_test.go", src, 0)
	if err != nil {
		t.Fatalf("standalone test does not parse: %v\n%s", err, src)
	}
	if f.Name.Name != "simfuzz" {
		t.Errorf("standalone test is in package %s, want simfuzz", f.Name.Name)
	}
	var funcs []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			funcs = append(funcs, fn.Name.Name)
		}
	}
	if !reflect.DeepEqual(funcs, []string{"TestSimfuzzSeed8"}) {
		t.Errorf("standalone test declares %q, want just TestSimfuzzSeed8", funcs)
	}
}

// TestCorpusKillsRecover: the corpus entries that carry a node kill
// still reach the recovery paths they were committed for on the DES
// leg — the node is lost and reducers restart on every platform, and a
// torn-write case repairs a torn checkpoint tail.
func TestCorpusKillsRecover(t *testing.T) {
	entries, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var killed []string
	for _, e := range entries {
		c := e.Case.Clone()
		c.Normalize()
		if c.KillFracPct == 0 {
			continue
		}
		killed = append(killed, e.Name)
		input := c.Input()
		for _, name := range c.Platforms {
			pl := platformNames[name]
			clean, err := safeRun(c.jobSpec(pl, input, 1, false, 0))
			if err != nil {
				t.Fatalf("%s/%s clean: %v", e.Name, name, err)
			}
			rep, err := safeRun(c.jobSpec(pl, input, 1, true, clean.MapFinishTime))
			if err != nil {
				t.Fatalf("%s/%s faulted: %v", e.Name, name, err)
			}
			if rep.NodesLost < 1 || rep.RestartedReduceTasks < 1 {
				t.Errorf("%s/%s: NodesLost = %d, RestartedReduceTasks = %d, want ≥ 1 each",
					e.Name, name, rep.NodesLost, rep.RestartedReduceTasks)
			}
			if c.TornWrites && rep.TornWritesRepaired < 1 {
				t.Errorf("%s/%s: TornWritesRepaired = 0, want the torn tail repaired", e.Name, name)
			}
		}
	}
	want := []string{"checkpoint-output-epoch", "node-combine-shuffle-fold", "real-backend-chaos-recovery",
		"reduce-restart-parity"}
	if !reflect.DeepEqual(killed, want) {
		t.Errorf("corpus entries with a kill = %q, want %q", killed, want)
	}
}
