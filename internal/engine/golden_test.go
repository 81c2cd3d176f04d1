package engine

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mr"
	"repro/internal/queries"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden Report snapshots")

// goldenReport runs the canonical clickcount job for one platform and
// strips the fields a snapshot must not pin: Samples and Spans are bulky
// raw series already covered by their own tests, and Workers/WallTime
// are the only fields allowed to vary with the host (pool size, real
// time). Everything left must be bit-for-bit reproducible.
func goldenReport(t *testing.T, pl Platform) *Report {
	return goldenVariantReport(t, pl, NodeCombineOff, 0)
}

// goldenVariantReport is goldenReport with the node-combine knobs
// exposed: the ".ncomb" golden files pin the combine stage's fold,
// hierarchical aggregation, and every derived counter.
func goldenVariantReport(t *testing.T, pl Platform, mode NodeCombineMode, fanIn int) *Report {
	t.Helper()
	m := testModel()
	cl := testCluster(m)
	cl.ProgressInterval = 2 * time.Second // keep the Progress curve short
	rep, err := Run(JobSpec{
		Query:       queries.NewClickCount(),
		Input:       testClicks(t, 96<<10, 12<<10),
		Platform:    pl,
		Cluster:     cl,
		Hints:       mr.Hints{Km: 0.1, DistinctKeys: 400},
		Seed:        1,
		NodeCombine: mode,
		AggFanIn:    fanIn,
	})
	if err != nil {
		t.Fatalf("clickcount on %v: %v", pl, err)
	}
	// The golden pins the Progress curve but not the raw series or the
	// task timeline.
	rep = rep.Without(Host)
	rep.Samples, rep.Spans = nil, nil
	return rep
}

// TestGoldenReports snapshots the full Report of the canonical
// clickcount job on every platform. Any change to the cost model, the
// scheduler, or a platform's data path shows up here as a readable
// field-level diff; run with -update to accept an intentional change.
func TestGoldenReports(t *testing.T) {
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			rep := goldenReport(t, pl)
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", pl.String()+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report drifted from %s:\n%s", path, diffLines(string(want), string(got)))
			}
		})
	}
}

// TestGoldenNodeCombineReports snapshots the same canonical job with
// the in-node combine stage on — flat on MR-hash, hierarchical
// (fan-in 3) on INC-hash — pinning the fold's published runs, the
// combine counters, ShuffleBytesSaved, and the per-node shuffle
// attribution against drift.
func TestGoldenNodeCombineReports(t *testing.T) {
	variants := []struct {
		pl    Platform
		fanIn int
	}{
		{MRHash, 0},
		{INCHash, 3},
	}
	for _, v := range variants {
		t.Run(v.pl.String(), func(t *testing.T) {
			rep := goldenVariantReport(t, v.pl, NodeCombineOn, v.fanIn)
			if rep.NodeCombineInputRecords == 0 {
				t.Fatal("combine stage did not run")
			}
			got, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", v.pl.String()+".ncomb.json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report drifted from %s:\n%s", path, diffLines(string(want), string(got)))
			}
		})
	}
}

// diffLines renders a compact line-level diff (golden vs. got) so a
// drifted counter reads as "-OldValue / +NewValue" instead of two JSON
// blobs.
func diffLines(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if wl != "" {
			b.WriteString("- " + wl + "\n")
		}
		if gl != "" {
			b.WriteString("+ " + gl + "\n")
		}
	}
	return b.String()
}
