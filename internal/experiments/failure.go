package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/jobspec"
)

func init() {
	register("recovery", "Robustness: node failure, re-execution, and checkpointed incremental recovery", runRecovery)
}

// countingPool sizes the user pool of a click-counting job so each user
// clicks ~64 times: reducer state (one counter per user) is then a
// small fraction of the shuffled data, which is the regime where
// checkpointing state instead of re-shuffling input pays off.
// SessionUsers would give a pool nearly as large as the record count at
// small scales, hiding the effect.
func (c Config) countingPool(cl engine.ClusterConfig, data, chunk float64) (int, error) {
	probe, err := c.Job(cl, engine.SortMerge,
		jobspec.Params{Query: "clickcount", DataBytes: data, ChunkBytes: chunk, Users: 1000})
	if err != nil {
		return 0, err
	}
	return max(int(records(probe.Input)/64), 500), nil
}

// runRecovery measures what a mid-job node failure costs each platform:
// every run loses the same machine as 75% of its map tasks complete, the
// failure detector declares it dead, lost map outputs re-execute on the
// survivors, and the dead node's reducers restart elsewhere. Sort-merge
// restarts a reducer from scratch (its whole input is re-shuffled);
// INC-hash and DINC-hash restore their last checkpointed state image
// and replay only the unconsumed suffix, which is the checkpointing
// argument for incremental one-pass processing: reducer state is the
// answer so far, so recovery re-reads state, not data.
func runRecovery(c Config) (*Result, error) {
	c = c.withDefaults()
	const data = 97e9
	cl := onePassSM(c, data)
	users, err := c.countingPool(cl, data, chunk64MB)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "recovery",
		Title: "Node failure and recovery (click counting, 97GB, one node killed mid-map)",
		Header: []string{"platform", "clean (s)", "failed (s)", "slowdown",
			"re-exec maps", "restarted reduces", "checkpoints", "ckpt written (GB)", "recovery read (GB)"},
	}

	type outcome struct {
		pl  engine.Platform
		rep *engine.Report
	}
	var outs []outcome
	for _, pl := range []engine.Platform{engine.SortMerge, engine.INCHash, engine.DINCHash} {
		mk := func() (engine.JobSpec, error) {
			spec, err := c.Job(cl, pl, jobspec.Params{Query: "clickcount", DataBytes: data, Users: users})
			spec.Hints.Km = 0.3
			return spec, err
		}
		clean, err := c.run(mk())
		if err != nil {
			return nil, err
		}
		mf := clean.MapFinishTime

		spec, err := mk()
		spec.Faults = engine.FaultPlan{
			KillAtMapProgress: map[int]float64{cl.Nodes - 1: 0.75},
			HeartbeatInterval: mf / 100,
			HeartbeatTimeout:  mf / 25,
		}
		if pl.Incremental() {
			// Shuffle consumption is bursty (map waves), so the cadence
			// must be fine enough that a checkpoint lands inside the wave
			// the kill interrupts, not just between waves.
			spec.CheckpointEvery = mf / 64
		}
		failed, err := c.run(spec, err)
		if err != nil {
			return nil, err
		}
		if failed.OutputRecords != clean.OutputRecords {
			return nil, fmt.Errorf("recovery: %s answers changed under failure: %d vs %d records",
				pl, failed.OutputRecords, clean.OutputRecords)
		}
		if failed.NodesLost != 1 {
			return nil, fmt.Errorf("recovery: %s lost %d nodes, want 1", pl, failed.NodesLost)
		}
		outs = append(outs, outcome{pl, failed})
		res.Rows = append(res.Rows, []string{
			pl.String(), secs(clean.RunningTime), secs(failed.RunningTime),
			fmt.Sprintf("%.2f×", failed.RunningTime.Seconds()/clean.RunningTime.Seconds()),
			fmt.Sprintf("%d", failed.ReExecutedMapTasks),
			fmt.Sprintf("%d", failed.RestartedReduceTasks),
			fmt.Sprintf("%d", failed.Checkpoints),
			gb(failed.CheckpointBytes), gb(failed.RecoveryReadBytes),
		})
	}

	sm := outs[0].rep
	for _, o := range outs[1:] {
		if o.rep.Checkpoints == 0 {
			return nil, fmt.Errorf("recovery: %s took no checkpoints", o.pl)
		}
		if o.rep.RecoveryReadBytes >= sm.RecoveryReadBytes {
			return nil, fmt.Errorf("recovery: %s re-read %d bytes, not fewer than sort-merge's %d",
				o.pl, o.rep.RecoveryReadBytes, sm.RecoveryReadBytes)
		}
		res.addFinding("%s restarts from its checkpointed state image and re-reads %sGB vs sort-merge's %sGB re-shuffle (%.1f× less), at %sGB of checkpoint writes",
			o.pl, gb(o.rep.RecoveryReadBytes), gb(sm.RecoveryReadBytes),
			float64(sm.RecoveryReadBytes)/float64(o.rep.RecoveryReadBytes),
			gb(o.rep.CheckpointBytes))
	}
	res.addFinding("all platforms survive the kill with identical answers: %d map tasks re-executed and %d reduce tasks restarted on sort-merge",
		sm.ReExecutedMapTasks, sm.RestartedReduceTasks)
	return res, nil
}
