package simfuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
)

// The planted bug that proves the harness can fail lives in a mutant
// build, never in the tree: runInMutant copies one sort-merge file,
// rewrites an anchor in it, and reruns the named tests in a child
// `go test -overlay` that compiles the copy in place of the original.

// spillDropRun is the one planted mutant, the name corpus entries give
// in their "mutation" field. It is an off-by-one in the reduce-side
// shuffle-spill merge: the spill leaves out the newest buffered run,
// silently losing its records whenever the shuffle buffer spills
// holding more than one run. The answer is wrong only where spills
// trigger with several buffered segments — the kind of
// configuration-dependent bug the randomized sweep is for.
const spillDropRun = "spill-drop-run"

const (
	mutantFile   = "../sortmerge/sortmerge.go"
	mutantAnchor = "\tspillRuns := r.views\n"
	mutantCode   = mutantAnchor + "\tif len(spillRuns) > 1 {\n\t\tspillRuns = spillRuns[:len(spillRuns)-1]\n\t}\n"
)

// plantedMutant names the mutant this test binary was built as. The
// child's overlay adds a file that sets it; in the tree it is "".
var plantedMutant string

// runInMutant runs the tests that pattern selects in a child go test
// built with the named mutant, and fails t with the child's output if
// the child fails. The child inherits -short and, when this binary was
// built with it, -race.
func runInMutant(t *testing.T, mutation, pattern string) {
	t.Helper()
	if mutation != spillDropRun {
		t.Fatalf("unknown planted mutation %q", mutation)
	}
	src, err := os.ReadFile(mutantFile)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), mutantAnchor); n != 1 {
		t.Fatalf("%s: mutant anchor %q found %d times, want exactly 1", mutantFile, mutantAnchor, n)
	}
	pkgDir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mutated := filepath.Join(dir, "sortmerge.go")
	marker := filepath.Join(dir, "planted_test.go")
	overlay := filepath.Join(dir, "overlay.json")
	replace := map[string]map[string]string{"Replace": {
		filepath.Join(pkgDir, mutantFile):                  mutated,
		filepath.Join(pkgDir, "zz_planted_mutant_test.go"): marker,
	}}
	blob, err := json.Marshal(replace)
	if err != nil {
		t.Fatal(err)
	}
	for path, data := range map[string]string{
		mutated: strings.Replace(string(src), mutantAnchor, mutantCode, 1),
		marker:  fmt.Sprintf("package simfuzz\n\nfunc init() { plantedMutant = %q }\n", mutation),
		overlay: string(blob),
	} {
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	args := []string{"test", "-count=1", "-v", "-overlay", overlay, "-run", pattern}
	if testing.Short() {
		args = append(args, "-short")
	}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		args = append(args, "-race")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(goTool, append(args, ".")...).CombinedOutput()
	if err != nil {
		t.Fatalf("mutant %s: go %s: %v\n%s", mutation, strings.Join(args, " "), err, out)
	}
	t.Logf("mutant %s: go %s\n%s", mutation, strings.Join(args, " "), out)
}
