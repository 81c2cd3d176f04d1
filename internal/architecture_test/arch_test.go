// Package architecture_test pins the repo's layering as an executable
// rule table. The dependency story the code tells — substrate and the
// byte-level foundations at the bottom, the platform core above them,
// the engine and real backend above that, and the long-running
// services (ingest, sched, serve) on top — only stays true if someone
// checks; this test walks every .go file with go/parser (ImportsOnly)
// and fails, naming the violating file, when an import crosses a
// boundary downward-only layering forbids — or when a package that
// must reach the filesystem only through internal/seglog, or code its
// payloads only through internal/frame's cursor, imports the standard
// library's way around it. The same walk records every package-qualified
// selector a file mentions, so that calls can be ruled on as imports are:
// only commands read the process environment.
package architecture_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePrefix = "repro/internal/"

// rule forbids the packages in From (basenames under internal/, or
// "cmd/<name>") from importing any package in Deny. Inverted rules are
// expressed by listing every legitimate importer: see onlyImporters.
type rule struct {
	Name string
	Why  string
	From []string
	Deny []string
}

// onlyImporters restricts who may import a package at all: map key is
// the guarded package, values are the packages allowed to import it.
type onlyImporters struct {
	Name    string
	Why     string
	Guarded string
	Allowed []string
}

var rules = []rule{
	{
		Name: "foundation-below-execution",
		Why:  "byte-level foundations must stay reusable outside the engine",
		From: []string{"frame", "kvenc", "substrate", "bytestore", "hashfam",
			"frequent", "sim", "metrics", "model", "cost", "seglog"},
		Deny: []string{"engine", "realexec", "sched", "serve", "ingest"},
	},
	{
		Name: "core-independent-of-execution",
		Why:  "platform reducers/mappers are substrate-generic: both backends build on core, never the reverse",
		From: []string{"core", "sortmerge", "storage", "mr", "queries", "workload", "dfs"},
		Deny: []string{"engine", "realexec", "sched", "serve", "ingest"},
	},
	{
		Name: "engine-below-services",
		Why:  "the simulator engine is a library; services orchestrate it, not vice versa",
		From: []string{"engine"},
		Deny: []string{"realexec", "sched", "serve", "ingest"},
	},
	{
		Name: "realexec-below-services",
		Why:  "the wall-clock backend must not reach into service state",
		From: []string{"realexec"},
		Deny: []string{"sched", "serve", "ingest"},
	},
	{
		Name: "sched-below-serve",
		Why:  "the scheduler is embeddable without HTTP",
		From: []string{"sched", "ingest"},
		Deny: []string{"serve"},
	},
}

var exclusives = []onlyImporters{
	{
		Name:    "seglog-only-under-durable-services",
		Why:     "the segmented log is the durability layer of the WAL and the job log, not a general file API",
		Guarded: "seglog",
		Allowed: []string{"ingest", "sched"},
	},
}

// stdlibBans reuse the rule shape with Deny holding standard-library
// import paths, and bind only non-test files: crash harnesses copy and
// truncate files, and the sampler's tests draw from math/rand's Zipf to
// compare against.
var stdlibBans = []rule{
	{
		Name: "durable-io-only-via-seglog",
		Why:  "every file the services write goes through internal/seglog, the one place a fault-injecting filesystem has to wrap",
		From: []string{"ingest", "sched"},
		Deny: []string{"os", "path/filepath", "io/ioutil", "syscall"},
	},
	{
		Name: "payload-coding-only-via-frame-cursor",
		Why:  "what is inside a record or an image is read through frame.Cursor and written by its Append twins: one bounds-checked varint loop, not one per codec",
		From: []string{"ingest", "sched"},
		Deny: []string{"encoding/binary"},
	},
	{
		Name: "generators-seed-in-constant-time",
		Why:  "a chunk's draws come from a math/rand/v2 PCG stream seeded in O(1) and alias tables; math/rand's NewSource fills 607 words per chunk and its Zipf calls Exp and Log per draw, which made the input generator the largest item in a job's profile",
		From: []string{"workload"},
		Deny: []string{"math/rand"},
	},
}

// nonTestRules bind only non-test files: test code may reach below the
// layer it tests (fixtures, oracles).
var nonTestRules = []rule{
	{
		Name: "realexec-only-drives-task-bodies",
		Why:  "the wall-clock backend schedules the shared task bodies (engine/task_*.go); it must not own a collector, a record loop or a checkpoint codec again, nor derive a hash family or a chunk placement beside engine.JobFrame's",
		From: []string{"realexec"},
		Deny: []string{"sortmerge", "kvenc", "frame", "bytestore", "merge", "hashfam", "dfs"},
	},
	{
		Name: "inputs-only-via-catalogue",
		Why:  "a job's synthetic input is the catalogue's (queries.Resolve, reached through jobspec.Build): a front-end that spells out its own generator spec is how the scheduler's trigram corpus once drifted from the CLI's",
		From: []string{"sched", "serve", "experiments", "cmd/onepass"},
		Deny: []string{"workload"},
	},
}

// fileRules are nonTestRules whose From holds path patterns
// (path.Match against the repo-relative file) instead of packages.
var fileRules = []rule{
	{
		Name: "task-bodies-substrate-neutral",
		Why:  "what a task attempt computes is shared by both backends, so it cannot depend on the simulation kernel or its gauges",
		From: []string{"internal/engine/task_*.go"},
		Deny: []string{"sim", "metrics"},
	},
}

// envReads are the selectors that read the process environment. No
// non-test file outside cmd/ may mention one: a library takes its
// settings from its caller, so a package that reads the environment has
// an input no flag, spec or fixture shows. A test that needs a different
// build of a package compiles one with go test -overlay (simfuzz's
// mutant) instead of switching on a variable.
var envReads = []string{"os.Getenv", "os.LookupEnv", "os.Environ"}

// fileImports maps a repo-relative .go file to the full paths of
// everything it imports, standard library included.
type fileImports map[string][]string

// fileUses maps a repo-relative .go file to the package-qualified
// selectors it mentions, written "<import path>.<name>" whatever name
// the file imports the package under.
type fileUses map[string][]string

// internal is the import path of internal package pkg.
func internal(pkg string) string { return modulePrefix + pkg }

// violations applies the rule tables to a parsed file set and returns
// one message per offense, each naming the violating file. Pure
// function of its input so the planted-violation self-check below can
// feed it fabricated trees.
func violations(files fileImports) []string {
	pkgOf := func(path string) string {
		rel := strings.TrimPrefix(filepath.ToSlash(path), "internal/")
		if cmd, ok := strings.CutPrefix(rel, "cmd/"); ok {
			name, _, _ := strings.Cut(cmd, "/")
			return "cmd/" + name
		}
		if i := strings.Index(rel, "/"); i >= 0 {
			return rel[:i]
		}
		return rel
	}
	inSet := func(set []string, s string) bool {
		for _, v := range set {
			if v == s {
				return true
			}
		}
		return false
	}

	var out []string
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		from := pkgOf(path)
		for _, full := range files[path] {
			imp, isInternal := strings.CutPrefix(full, modulePrefix)
			if !isInternal {
				for _, b := range stdlibBans {
					if inSet(b.From, from) && inSet(b.Deny, full) && !strings.HasSuffix(path, "_test.go") {
						out = append(out, fmt.Sprintf("%s: rule %q: non-test files of %s must not import %q (%s)",
							path, b.Name, from, full, b.Why))
					}
				}
				continue
			}
			for _, r := range rules {
				if inSet(r.From, from) && inSet(r.Deny, imp) {
					out = append(out, fmt.Sprintf("%s: rule %q: package %s must not import %s%s (%s)",
						path, r.Name, from, modulePrefix, imp, r.Why))
				}
			}
			if !strings.HasSuffix(path, "_test.go") {
				for _, r := range nonTestRules {
					if inSet(r.From, from) && inSet(r.Deny, imp) {
						out = append(out, fmt.Sprintf("%s: rule %q: non-test files of %s must not import %s%s (%s)",
							path, r.Name, from, modulePrefix, imp, r.Why))
					}
				}
				for _, r := range fileRules {
					if matchesAny(r.From, path) && inSet(r.Deny, imp) {
						out = append(out, fmt.Sprintf("%s: rule %q: files matching %v must not import %s%s (%s)",
							path, r.Name, r.From, modulePrefix, imp, r.Why))
					}
				}
			}
			for _, x := range exclusives {
				if imp == x.Guarded && from != x.Guarded && !inSet(x.Allowed, from) {
					out = append(out, fmt.Sprintf("%s: rule %q: only %v may import %s%s (%s)",
						path, x.Name, x.Allowed, modulePrefix, x.Guarded, x.Why))
				}
			}
		}
	}
	return out
}

// envViolations returns one message per non-test file outside cmd/
// that mentions a selector in envReads. Pure, like violations.
func envViolations(uses fileUses) []string {
	var out []string
	for path, sels := range uses {
		if strings.HasPrefix(path, "cmd/") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		for _, sel := range sels {
			if slices.Contains(envReads, sel) {
				out = append(out, fmt.Sprintf("%s: rule \"environment-read-only-in-cmd\": non-test files outside cmd/ must not call %s (a library takes its settings from its caller)",
					path, sel))
			}
		}
	}
	sort.Strings(out)
	return out
}

// selectors returns the package-qualified selectors f mentions, sorted
// and without repeats (see fileUses).
func selectors(f *ast.File) []string {
	pkgs := map[string]string{} // the name a file uses → import path
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := pathpkg.Base(path)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		pkgs[name] = path
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && pkgs[id.Name] != "" {
				out = append(out, pkgs[id.Name]+"."+sel.Sel.Name)
			}
		}
		return true
	})
	slices.Sort(out)
	return slices.Compact(out)
}

// matchesAny reports whether the slash-separated file path matches one
// of the path.Match patterns.
func matchesAny(patterns []string, file string) bool {
	for _, pat := range patterns {
		if ok, _ := pathpkg.Match(pat, filepath.ToSlash(file)); ok {
			return true
		}
	}
	return false
}

// parseTree walks the repository for .go files (skipping testdata and
// vendor) and records each file's imports and selectors.
func parseTree(t *testing.T, root string) (fileImports, fileUses) {
	t.Helper()
	fset := token.NewFileSet()
	files, uses := fileImports{}, fileUses{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "vendor", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		var imps []string
		for _, spec := range f.Imports {
			val, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return fmt.Errorf("%s: bad import %s: %w", rel, spec.Path.Value, err)
			}
			imps = append(imps, val)
		}
		files[filepath.ToSlash(rel)] = imps
		uses[filepath.ToSlash(rel)] = selectors(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, uses
}

// repoRoot finds the module root (the directory holding go.mod) from
// the test's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}

// TestImportBoundaries applies the rule table to the real tree.
func TestImportBoundaries(t *testing.T) {
	files, uses := parseTree(t, repoRoot(t))
	if len(files) < 50 {
		t.Fatalf("walked only %d .go files — tree scan is broken", len(files))
	}
	for _, v := range append(violations(files), envViolations(uses)...) {
		t.Error(v)
	}
}

// TestRulesCoverKnownPackages guards the rule table against decay: the
// packages it names must exist, so a rename can't quietly turn a rule
// into a no-op matching nothing.
func TestRulesCoverKnownPackages(t *testing.T) {
	root := repoRoot(t)
	exists := func(pkg string) bool {
		dir := filepath.Join(root, "internal", pkg)
		if strings.HasPrefix(pkg, "cmd/") {
			dir = filepath.Join(root, pkg)
		}
		_, err := os.Stat(dir)
		return err == nil
	}
	for _, r := range rules {
		for _, pkg := range append(append([]string{}, r.From...), r.Deny...) {
			if !exists(pkg) {
				t.Errorf("rule %q names nonexistent package internal/%s", r.Name, pkg)
			}
		}
	}
	for _, x := range exclusives {
		for _, pkg := range append([]string{x.Guarded}, x.Allowed...) {
			if !exists(pkg) {
				t.Errorf("rule %q names nonexistent package internal/%s", x.Name, pkg)
			}
		}
	}
	for _, b := range stdlibBans {
		for _, pkg := range b.From {
			if !exists(pkg) {
				t.Errorf("rule %q names nonexistent package internal/%s", b.Name, pkg)
			}
		}
	}
	for _, r := range nonTestRules {
		for _, pkg := range append(append([]string{}, r.From...), r.Deny...) {
			if !exists(pkg) {
				t.Errorf("rule %q names nonexistent package internal/%s", r.Name, pkg)
			}
		}
	}
	for _, r := range fileRules {
		for _, pat := range r.From {
			if m, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(pat))); err != nil || len(m) == 0 {
				t.Errorf("rule %q: pattern %s matches no file (%v)", r.Name, pat, err)
			}
		}
		for _, pkg := range r.Deny {
			if !exists(pkg) {
				t.Errorf("rule %q names nonexistent package internal/%s", r.Name, pkg)
			}
		}
	}
}

// TestPlantedViolationsAreCaught is the self-check: a checker that
// cannot fail is indistinguishable from no checker. Each planted
// offense must be reported, and the report must name the file.
func TestPlantedViolationsAreCaught(t *testing.T) {
	cases := []struct {
		name string
		file string
		imp  string
	}{
		{"foundation imports engine", "internal/frame/bad.go", internal("engine")},
		{"core imports realexec", "internal/core/bad.go", internal("realexec")},
		{"engine imports sched", "internal/engine/bad.go", internal("sched")},
		{"cmd/onepassd imports seglog", "cmd/onepassd/main.go", internal("seglog")},
		{"ingest imports serve", "internal/ingest/bad.go", internal("serve")},
		{"seglog imports ingest", "internal/seglog/bad.go", internal("ingest")},
		{"serve imports seglog", "internal/serve/bad.go", internal("seglog")},
		{"ingest imports os", "internal/ingest/bad.go", "os"},
		{"sched imports path/filepath", "internal/sched/bad.go", "path/filepath"},
		{"ingest imports encoding/binary", "internal/ingest/batch.go", "encoding/binary"},
		{"sched imports encoding/binary", "internal/sched/log.go", "encoding/binary"},
		{"workload imports math/rand", "internal/workload/workload.go", "math/rand"},
		{"realexec imports kvenc", "internal/realexec/bad.go", internal("kvenc")},
		{"realexec imports sortmerge", "internal/realexec/bad.go", internal("sortmerge")},
		{"realexec imports hashfam", "internal/realexec/realexec.go", internal("hashfam")},
		{"realexec imports dfs", "internal/realexec/nodecombine.go", internal("dfs")},
		{"experiments imports workload", "internal/experiments/hash.go", internal("workload")},
		{"cmd/onepass imports workload", "cmd/onepass/main.go", internal("workload")},
		{"task body imports sim", "internal/engine/task_bad.go", internal("sim")},
		{"task body imports metrics", "internal/engine/task_map.go", internal("metrics")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := fileImports{tc.file: []string{tc.imp}}
			got := violations(files)
			if len(got) == 0 {
				t.Fatalf("planted violation %s → %s not caught", tc.file, tc.imp)
			}
			if !strings.Contains(got[0], tc.file) {
				t.Fatalf("report %q does not name the violating file %s", got[0], tc.file)
			}
		})
	}

	// And a legal tree yields no findings.
	legal := fileImports{
		"internal/sched/log.go":           {internal("seglog"), internal("frame"), "encoding/json"},
		"internal/serve/jobs.go":          {internal("sched"), internal("ingest"), "os"},
		"internal/engine/job.go":          {internal("core"), internal("sim"), internal("frame")},
		"internal/sched/sched.go":         {internal("seglog"), internal("engine"), "fmt"},
		"internal/sched/log_test.go":      {"os", "path/filepath", "encoding/binary"},
		"internal/seglog/seglog.go":       {internal("frame"), "os", "path/filepath"},
		"internal/realexec/realexec.go":   {internal("engine"), internal("core"), internal("storage")},
		"internal/realexec/fault_test.go": {internal("kvenc"), internal("frame"), internal("hashfam"), internal("dfs")},
		"internal/engine/task_frame.go":   {internal("hashfam"), internal("dfs")},
		"internal/engine/task_reduce.go":  {internal("core"), internal("sortmerge"), internal("frame")},
		"internal/engine/maptask.go":      {internal("sim"), internal("metrics")},
		"internal/engine/task_test.go":    {internal("sim")},
		"internal/jobspec/jobspec.go":     {internal("queries"), internal("engine"), internal("realexec")},
		"internal/queries/catalog.go":     {internal("workload")},
		"internal/sched/build_test.go":    {internal("workload")},
		"internal/workload/sample.go":     {"math/rand/v2", "math/bits"},
		"internal/workload/zipf_test.go":  {"math/rand"},
		"cmd/benchtables/main.go":         {internal("workload")},
	}
	if got := violations(legal); len(got) != 0 {
		t.Fatalf("legal tree flagged: %v", got)
	}

	// The environment rule, from source through the selector walk: an
	// aliased import does not hide the read.
	src := "package sortmerge\n\nimport env \"os\"\n\nfunc mutated() bool { return env.Getenv(\"X\") != \"\" }\n"
	f, err := parser.ParseFile(token.NewFileSet(), "mutation.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	planted := fileUses{"internal/sortmerge/mutation.go": selectors(f), "onepass.go": {"os.Environ"},
		"internal/sched/bad.go": {"os.LookupEnv"}}
	got := envViolations(planted)
	if len(got) != len(planted) {
		t.Fatalf("planted environment reads: %d reported, want %d: %v", len(got), len(planted), got)
	}
	for i, file := range []string{"internal/sched/bad.go", "internal/sortmerge/mutation.go", "onepass.go"} {
		if !strings.HasPrefix(got[i], file+":") {
			t.Errorf("report %q does not name the violating file %s", got[i], file)
		}
	}
	legalUses := fileUses{
		"cmd/onepassd/main.go":             {"os.Getenv", "os.LookupEnv"},
		"internal/simfuzz/simfuzz_test.go": {"os.Getenv"},
		"internal/realexec/scratch.go":     {"os.TempDir", "os.CreateTemp"},
	}
	if got := envViolations(legalUses); len(got) != 0 {
		t.Fatalf("legal uses flagged: %v", got)
	}
}
