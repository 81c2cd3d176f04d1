// Clickstats: online aggregation with early answers. Runs
// frequent-user identification (users with ≥ 200 clicks) on INC-hash
// and shows answers streaming out *while the job is still mapping* —
// the paper's Fig 7(c) behaviour — then compares against the same
// query on sort-merge, which cannot answer anything before the final
// merge.
//
//	go run ./examples/clickstats
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
)

func main() {
	model := onepass.DefaultModel(1.0 / 128)
	cluster := onepass.PaperCluster(model)

	input := onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: model.ScaleBytes(32e9),
		ChunkPhys: model.ScaleBytes(64e6),
		Seed:      3,
		Users:     30_000,
		UserSkew:  1.4, // enough skew that some users cross the threshold early
		UserV:     8,
		URLs:      10_000,
		URLSkew:   1.3,
		Duration:  12 * time.Hour,
		Jitter:    2 * time.Second,
	})

	run := func(platform onepass.Platform) *onepass.Report {
		rep, err := onepass.Run(onepass.Job{
			Query:    onepass.FrequentUsers(200),
			Input:    input,
			Platform: platform,
			Cluster:  cluster,
			Hints:    onepass.Hints{Km: 0.05, DistinctKeys: 30_000},
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	for _, platform := range []onepass.Platform{onepass.SortMerge, onepass.INCHash} {
		rep := run(platform)
		fmt.Printf("%s: %d frequent users found, job took %s\n",
			rep.Platform, rep.OutputRecords, rep.RunningTime.Round(time.Second))
		fmt.Println("  time      answers out")
		for _, p := range rep.Progress {
			if p.T == 0 {
				continue
			}
			bar := int(p.Out * 40)
			fmt.Printf("  %6.0fs   %s %.0f%%\n", p.T.Seconds(),
				strings.Repeat("█", max(0, bar))+strings.Repeat("·", max(0, 40-bar)), p.Out*100)
		}
		fmt.Println()
	}
	fmt.Println("INC-hash emits a user the instant its in-memory count crosses the")
	fmt.Println("threshold; sort-merge reveals everything only after the final merge.")
}
