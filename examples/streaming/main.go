// Streaming: the paper's future-work scenario (§8) — stream query
// processing with window operations on the one-pass platform. Counts
// URL visits over tumbling 1-hour windows; on DINC-hash each window's
// results stream out as soon as the watermark passes the window end,
// and closed-window states are retired from memory instead of spilled,
// so the job behaves like a continuous query over the day of clicks.
//
//	go run ./examples/streaming
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
	cluster.MergeFactor = 16

	input := onepass.SyntheticClickStream(onepass.ClickStreamSpec{
		PhysBytes: model.ScaleBytes(48e9),
		ChunkPhys: model.ScaleBytes(64e6),
		Seed:      13,
		Users:     50_000,
		UserSkew:  1.2,
		URLs:      15_000,
		URLSkew:   1.3,
		Duration:  24 * time.Hour,
		Jitter:    2 * time.Second,
	})

	rep, err := onepass.Run(onepass.Job{
		Query:     onepass.WindowCount(time.Hour, 5*time.Second),
		Input:     input,
		Platform:  onepass.DINCHash,
		Cluster:   cluster,
		Hints:     onepass.Hints{Km: 0.06, DistinctKeys: 24 * 15_000},
		ScanEvery: 4096,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("windowed visit counts on %s: %s total, %d window records, %0.2fGB reduce spill\n\n",
		rep.Platform, rep.RunningTime.Round(time.Second), rep.OutputRecords,
		float64(rep.ReduceSpillBytes)/1e9)
	fmt.Println("  job time   windows reported")
	for _, p := range rep.Progress {
		if p.T == 0 {
			continue
		}
		bar := int(p.Out * 40)
		if bar > 40 {
			bar = 40
		}
		fmt.Printf("  %7.0fs   %s %.0f%%\n", p.T.Seconds(),
			strings.Repeat("█", max(0, bar))+strings.Repeat("·", max(0, 40-bar)), p.Out*100)
	}
	fmt.Println("\nResults for each hour of traffic appear while later hours are still")
	fmt.Println("being read: one-pass, incremental, near-real-time — no second job,")
	fmt.Println("no re-merge, no waiting for the end of the data.")
}
