package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/jobspec"
	"repro/internal/model"
)

func init() {
	register("nodecombine", "Shuffle reduction: in-node combining across the duplication spectrum", runNodeCombine)
}

// runNodeCombine sweeps the key-space size of a click-counting job
// from duplication-heavy (few distinct users, K_r ≪ K_m: every node
// sees every key many times) to duplication-poor (K_r approaching
// K_m: keys barely repeat), running each point with the in-node
// combine stage off, forced on, and in auto mode. The table compares
// the model's predicted shuffle-byte saving 1 − N·K_r/K_m against the
// measured reduction and shows where the auto gate flips off.
func runNodeCombine(c Config) (*Result, error) {
	c = c.withDefaults()
	// 24GB: the widest pool a click record's 7-digit user id holds is 10M,
	// and the auto gate flips past 0.75·K_m·D/(24·N) users — 9M here.
	const data = 24e9
	const rowBytes = 24             // logical bytes per reduced (user, count) row: the catalogue's Kr
	sized := float64(c.sized(data)) // the model must describe the data actually run
	cl := onePassSM(c, data)
	// Tight reduce memory: the unreduced shuffle must exceed it, the
	// paper's regime where the reducers spill (cf. Table 3's MR-hash
	// column); combining shrinks the shuffle back under the budget.
	cl.ReduceBuffer /= 8

	res := &Result{
		ID:    "nodecombine",
		Title: "In-node combining vs key duplication (click counting, 24GB, MR-hash)",
		Header: []string{"distinct users", "shuffle off (GB)", "shuffle on (GB)", "reduction",
			"predicted saved", "measured saved", "auto"},
	}

	run := func(users int, mode engine.NodeCombineMode, fanIn int) (*engine.Report, error) {
		spec, err := c.Job(cl, engine.MRHash, jobspec.Params{Query: "clickcount", DataBytes: data,
			Users: users, NodeCombine: mode.String(), AggFanIn: fanIn})
		spec.Hints.Km = 0.12 // as in table3
		return c.run(spec, err)
	}
	gb2 := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/1e9) }

	var bestReduction float64
	autoFlipped := false
	for _, users := range []int{400, 4_000, 40_000, 4_000_000, 10_000_000} {
		off, err := run(users, engine.NodeCombineOff, 0)
		if err != nil {
			return nil, err
		}
		on, err := run(users, engine.NodeCombineOn, 0)
		if err != nil {
			return nil, err
		}
		auto, err := run(users, engine.NodeCombineAuto, 0)
		if err != nil {
			return nil, err
		}
		predicted := model.NodeCombineSavedFrac(
			model.Workload{D: 1, Km: 0.12, Kr: rowBytes * float64(users) / sized}, cl.Nodes)
		measured := 1 - float64(on.MapOutputBytes)/float64(off.MapOutputBytes)
		reduction := float64(off.MapOutputBytes) / float64(on.MapOutputBytes)
		if reduction > bestReduction {
			bestReduction = reduction
		}
		autoOn := auto.NodeCombineInputRecords > 0
		autoLabel := "off"
		if autoOn {
			autoLabel = "on"
		} else {
			autoFlipped = true
		}
		if wantOn := predicted >= model.NodeCombineThreshold; autoOn != wantOn {
			return nil, fmt.Errorf("nodecombine: auto resolved %v at %d users, model predicts %v", autoOn, users, wantOn)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", users), gb2(off.MapOutputBytes), gb2(on.MapOutputBytes),
			fmt.Sprintf("%.1fx", reduction),
			fmt.Sprintf("%.0f%%", 100*predicted), fmt.Sprintf("%.0f%%", 100*measured),
			autoLabel,
		})
	}
	// Quick mode shrinks the data 16x, which shrinks per-node key
	// repetition with it (the scale artifact the fidelity notes cover),
	// so the >= 2x floor is asserted at realistic scale only.
	if !c.Quick && bestReduction < 2 {
		return nil, fmt.Errorf("nodecombine: best shuffle reduction %.2fx, want >= 2x on the high-duplication end", bestReduction)
	}
	if !autoFlipped {
		return nil, fmt.Errorf("nodecombine: auto mode never resolved off across the sweep")
	}

	// Hierarchical aggregation on the most duplication-heavy point:
	// folding AggFanIn=5 consecutive nodes through one member collapses
	// the cross-node duplicates the flat per-node fold cannot see.
	flatRep, err := run(400, engine.NodeCombineOn, 0)
	if err != nil {
		return nil, err
	}
	aggRep, err := run(400, engine.NodeCombineOn, 5)
	if err != nil {
		return nil, err
	}
	serving := 0
	for _, b := range aggRep.ShuffleBytesByNode {
		if b > 0 {
			serving++
		}
	}

	res.addFinding("high-duplication end (400 users): combining cuts the shuffle %.1fx (%s -> %s GB) — well past the 2x reduction the in-node fold targets",
		bestReduction, res.Rows[0][1], res.Rows[0][2])
	res.addFinding("the measured saving falls off faster than the model's N*Kr/Km floor: the floor assumes a perfect fold, while the real stage is bounded by the map buffer and by how many times a key actually repeats per node (at 1/512 scale the per-node repetition is itself scaled down — see the map-side combine note under fidelity gaps)")
	res.addFinding("the auto gate follows the model, not the measurement: on while the predicted saving clears %.0f%%, off at the sparse end — mispredicting only where the prediction itself is optimistic, which costs fold CPU but never correctness", 100*model.NodeCombineThreshold)
	res.addFinding("hierarchical aggregation (fan-in 5) folds cross-node duplicates the flat stage cannot: shuffle %s -> %s GB, served from %d of %d nodes",
		gb2(flatRep.MapOutputBytes), gb2(aggRep.MapOutputBytes), serving, cl.Nodes)
	return res, nil
}
