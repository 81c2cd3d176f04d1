package simfuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CorpusEntry is one committed regression case under testdata/corpus/:
// a (usually shrunk) case plus the context needed to replay it.
type CorpusEntry struct {
	// Name is the file stem; shown as the subtest name.
	Name string `json:"name"`
	// Note says where the case came from and what it exercises.
	Note string `json:"note,omitempty"`
	// Mutation names the planted mutant (mutant_test.go) the replay
	// must run in, "" for none.
	Mutation string `json:"mutation,omitempty"`
	// ExpectFailure is true when the replay must fail (mutation
	// repros); false means the case regressed once and must now pass.
	ExpectFailure bool `json:"expect_failure,omitempty"`
	Case          Case `json:"case"`
}

// LoadCorpus reads every *.json entry under dir, sorted by filename so
// replay order is stable.
func LoadCorpus(dir string) ([]CorpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var entries []CorpusEntry
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var e CorpusEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", filepath.Base(p), err)
		}
		if e.Name == "" {
			e.Name = strings.TrimSuffix(filepath.Base(p), ".json")
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// RenderRepro formats a failing case as everything needed to chase it:
// the verdict, the replay seed, the corpus JSON blob (paste into
// internal/simfuzz/testdata/corpus/<name>.json), and a ready-to-paste
// standalone Go test.
func RenderRepro(c Case, v Verdict) string {
	entry := CorpusEntry{Name: fmt.Sprintf("seed-%d", c.Seed), Case: c}
	blob, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		return fmt.Sprintf("marshal repro: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "failing case (replay: SIMFUZZ_SEED=%d SIMFUZZ_CASES=1 go test -run TestSweep ./internal/simfuzz/):\n%s\n\n",
		c.Seed, v.String())
	fmt.Fprintf(&b, "corpus entry (testdata/corpus/%s.json):\n%s\n\n", entry.Name, blob)
	b.WriteString("standalone regression test:\n")
	b.WriteString(GoTest(c, fmt.Sprintf("SimfuzzSeed%d", abs64(c.Seed))))
	return b.String()
}

// GoTest renders a self-contained regression test file for the case,
// in package simfuzz (save it as internal/simfuzz/<name>_test.go). The
// generated test asserts the case passes — the form a repro takes
// after the bug it caught is fixed.
func GoTest(c Case, name string) string {
	blob, err := json.MarshalIndent(c, "", "\t")
	if err != nil {
		return fmt.Sprintf("// marshal case: %v", err)
	}
	var b strings.Builder
	b.WriteString("package simfuzz\n\nimport (\n\t\"encoding/json\"\n\t\"testing\"\n)\n\n")
	fmt.Fprintf(&b, "func Test%s(t *testing.T) {\n", name)
	fmt.Fprintf(&b, "\tconst caseJSON = `%s`\n", string(blob))
	b.WriteString("\tvar c Case\n")
	b.WriteString("\tif err := json.Unmarshal([]byte(caseJSON), &c); err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	b.WriteString("\tif v := RunCase(c); !v.OK() {\n\t\tt.Fatalf(\"case fails:\\n%s\", v.String())\n\t}\n")
	b.WriteString("}\n")
	return b.String()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
