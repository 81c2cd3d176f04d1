package experiments

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/jobspec"
)

func init() {
	register("integrity", "Robustness: checksummed frames, disk-fault injection, and bit-identical answers", runIntegrity)
}

// answers canonicalizes a run's collected output for comparison.
func answers(rep *engine.Report) []string {
	out := make([]string, 0, len(rep.Outputs))
	for _, kv := range rep.Outputs {
		out = append(out, kv[0]+"\x00"+kv[1])
	}
	sort.Strings(out)
	return out
}

func sameAnswers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runIntegrity measures the data-plane integrity machinery on every
// platform. Three runs each: clean (integrity off) for the baseline
// answers, clean with checksums on (the overhead side: CRC32C framing
// must stay under 5% of total I/O and change no answer), and a faulted
// run under transient I/O errors plus — where the platform has the
// recovery ladder for it — write-time bit flips and torn checkpoint
// tails at a node kill. Every detection is recovered end-to-end
// (re-fetch, map re-execution, attempt restart, checkpoint fallback)
// and the answers must come out bit-identical to the clean run.
func runIntegrity(c Config) (*Result, error) {
	c = c.withDefaults()
	const data = 32e9
	cl := onePassSM(c, data)
	// Two reducer waves with a small slot cache: second-wave shuffle
	// fetches come from the mapper's disk, which is what reads flipped
	// map-output frames back and lets the checksum catch them. Small
	// chunks spread the maps over several waves so checkpoints exist
	// (and can be torn) by the time the kill below is declared.
	cl.ReduceSlots = 2
	cl.SlotCache = 2
	const chunk = 16e6

	users, err := c.countingPool(cl, data, chunk)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "integrity",
		Title: "Data-plane integrity (click counting, 32GB): checksum overhead and corruption recovery",
		Header: []string{"platform", "clean (s)", "checksummed (s)", "overhead (GB)", "overhead (%)",
			"faulted (s)", "io retries", "corrupt frames", "torn repairs"},
	}

	// The overhead budget: < 5% of total I/O at realistic scale. Quick
	// mode shrinks every payload but not the number of frames, so the
	// fixed per-frame header/CRC bytes loom artificially large there —
	// only sanity-bound it.
	budget := 5.0
	if c.Quick {
		budget = 50
	}

	platforms := []engine.Platform{engine.SortMerge, engine.HOP, engine.MRHash, engine.INCHash, engine.DINCHash}
	var maxOverheadPct float64
	for _, pl := range platforms {
		mk := func() (engine.JobSpec, error) {
			spec, err := c.Job(cl, pl,
				jobspec.Params{Query: "clickcount", DataBytes: data, ChunkBytes: chunk, Users: users})
			spec.Hints.Km = 0.3
			spec.CollectOutput = true
			return spec, err
		}
		clean, err := c.run(mk())
		if err != nil {
			return nil, err
		}
		if clean.ChecksumOverheadBytes != 0 || clean.IORetries != 0 || clean.CorruptFramesDetected != 0 {
			return nil, fmt.Errorf("integrity: %s clean run recorded integrity activity", pl)
		}
		want := answers(clean)
		mf := clean.MapFinishTime

		sumSpec, err := mk()
		sumSpec.Cluster.Checksums = true
		summed, err := c.run(sumSpec, err)
		if err != nil {
			return nil, err
		}
		if !sameAnswers(want, answers(summed)) {
			return nil, fmt.Errorf("integrity: %s answers changed by enabling checksums", pl)
		}
		pct := 100 * float64(summed.ChecksumOverheadBytes) / float64(summed.TotalIOBytes)
		if summed.ChecksumOverheadBytes <= 0 || pct >= budget {
			return nil, fmt.Errorf("integrity: %s checksum overhead %.2f%% outside (0, %.0f%%)", pl, pct, budget)
		}
		if pct > maxOverheadPct {
			maxOverheadPct = pct
		}

		faultSpec, err := mk()
		faultSpec.Cluster.Checksums = true
		faultSpec.Faults.Disk = engine.DiskFaultPlan{IOErrorRate: 0.05}
		if pl != engine.HOP {
			faultSpec.Faults.Disk.CorruptRate = 0.3
		}
		if pl.Incremental() {
			faultSpec.Faults.Disk.TornWrites = true
			faultSpec.Faults.KillAtMapProgress = map[int]float64{cl.Nodes - 1: 0.75}
			faultSpec.Faults.HeartbeatInterval = mf / 100
			faultSpec.Faults.HeartbeatTimeout = mf / 25
			faultSpec.CheckpointEvery = mf / 64
		}
		faulted, err := c.run(faultSpec, err)
		if err != nil {
			return nil, err
		}
		if !sameAnswers(want, answers(faulted)) {
			return nil, fmt.Errorf("integrity: %s answers changed under fault injection", pl)
		}
		if faulted.IORetries == 0 {
			return nil, fmt.Errorf("integrity: %s injected no transient I/O errors", pl)
		}
		if pl != engine.HOP && faulted.CorruptFramesDetected == 0 {
			return nil, fmt.Errorf("integrity: %s detected no corrupt frames under injection", pl)
		}

		res.Rows = append(res.Rows, []string{
			pl.String(), secs(clean.RunningTime), secs(summed.RunningTime),
			fmt.Sprintf("%.2f", float64(summed.ChecksumOverheadBytes)/1e9),
			fmt.Sprintf("%.2f", pct),
			secs(faulted.RunningTime),
			fmt.Sprintf("%d", faulted.IORetries),
			fmt.Sprintf("%d", faulted.CorruptFramesDetected),
			fmt.Sprintf("%d", faulted.TornWritesRepaired),
		})
	}

	res.addFinding("all five platforms return bit-identical answers under transient I/O errors, bit flips, and torn checkpoint tails")
	res.addFinding("CRC32C framing costs at most %.2f%% of total I/O bytes, and zero when disabled", maxOverheadPct)
	return res, nil
}
