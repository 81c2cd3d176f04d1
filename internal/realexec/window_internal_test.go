package realexec

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/engine"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/reference"
)

// repeated is one chunk of an input, n times over.
type repeated struct {
	dfs.Input
	n int
}

func (in repeated) NumChunks() int        { return in.n }
func (in repeated) ChunkBytes(int) []byte { return in.Input.ChunkBytes(0) }

// TestBackingsStayInTheWindow: a map output's backing, once every
// reducer has consumed it, goes back with its residency token, and a
// map that holds a token writes its output into one left so, so a run
// allocates at most a backing per token, plus one for each that was too
// small. Here every chunk is the same, so none is, and a run of eight
// times as many chunks as its window allocates no more backings than
// the window holds, on both collectors that write a backing: the hash
// collector passing sessionization's states through, and sort-merge's.
func TestBackingsStayInTheWindow(t *testing.T) {
	newQ := func() mr.Query { return queries.NewSessionization(5*time.Minute, 512, 5*time.Second) }
	for _, pl := range []engine.Platform{engine.SortMerge, engine.INCHash} {
		t.Run(pl.String(), func(t *testing.T) {
			job := internalJob(pl)
			job.Cluster.Parallelism = 4
			r, err := newRun(job, newQ)
			if err != nil {
				t.Fatal(err)
			}
			w := cap(r.resident)
			if w >= job.Cluster.SlotCache*job.Cluster.Nodes {
				t.Fatalf("test setup: the window (%d) is not under the page cache", w)
			}
			job.Input = repeated{job.Input, 8 * w}
			if r, err = newRun(job, newQ); err != nil {
				t.Fatal(err)
			}
			rep, err := r.execute()
			if err != nil {
				t.Fatal(err)
			}
			// A session's number depends on how a platform bounds its
			// buffers; each click and its user must match.
			click := func(user, value string) string {
				_, c, _ := strings.Cut(value, "\t")
				return user + "\t" + c
			}
			outs, _ := reference.RunWithWatermarks(newQ(), job.Input)
			var want, got []string
			for _, o := range outs {
				want = append(want, click(o.Key, o.Value))
			}
			for _, kv := range rep.Outputs {
				got = append(got, click(kv[0], kv[1]))
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%d output rows differ from the reference's %d", len(got), len(want))
			}
			if n := r.fresh.Load(); n > int64(w) {
				t.Errorf("%d chunks allocated %d backings, over the window of %d", job.Input.NumChunks(), n, w)
			}
		})
	}
}
