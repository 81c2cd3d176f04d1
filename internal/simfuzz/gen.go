package simfuzz

import (
	"math/rand"
	"time"

	"repro/internal/storage"
)

// Gen derives a complete random case from a seed. The draw order is
// fixed, so the same seed always yields the same case (the replay
// key); the result is already normalized.
//
// Roughly 45% of cases carry a fault schedule; inputs stay small
// (16–112KB physical ≈ 64–448MB logical at Scale) so a single case
// runs in tens of milliseconds and a 200-case smoke fits in CI.
func Gen(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}

	c.Query = queryKinds[rng.Intn(len(queryKinds))]

	// Workload shape.
	c.DataSeed = rng.Int63n(1 << 40)
	c.InputKB = 16 + 16*rng.Intn(7) // 16..112
	c.ChunkKB = 2 + rng.Intn(15)    // 2..16
	if c.Query == "trigram" {
		c.Vocab = 100 + rng.Intn(400)
		c.WordSkew = 1.05 + rng.Float64()*0.7
		c.DocWords = 5 + rng.Intn(10)
	} else {
		c.Users = 50 + rng.Intn(750)
		c.UserSkew = 1.05 + rng.Float64()*0.95
		c.URLs = 20 + rng.Intn(180)
		c.URLSkew = 1.05 + rng.Float64()*0.95
		c.DurationMS = int64(1+rng.Intn(6)) * int64(time.Hour/time.Millisecond)
		c.JitterMS = int64(rng.Intn(3)) * 1000
		c.PadBytes = 8 + rng.Intn(57) // record-shape: 8..64 byte padding
	}

	// Query parameters.
	switch c.Query {
	case "frequsers":
		c.Threshold = 2 + rng.Int63n(30)
	case "trigram":
		c.Threshold = 1 + rng.Int63n(6)
	case "sessionization":
		c.GapMS = int64(1+rng.Intn(10)) * int64(time.Minute/time.Millisecond)
		c.StateSize = 128 << rng.Intn(5) // 128..2048
		c.SlackMS = c.JitterMS + 1000 + int64(rng.Intn(4))*1000
	case "windowcount":
		c.WindowMS = int64(5+rng.Intn(56)) * int64(time.Minute/time.Millisecond)
		c.SlackMS = c.JitterMS + 1000 + int64(rng.Intn(4))*1000
	}

	// Cluster shape and Hadoop knobs.
	c.Nodes = 2 + rng.Intn(3) // 2..4
	c.Cores = 1 + rng.Intn(2)
	c.MapSlots = 1 + rng.Intn(2)
	c.ReduceSlots = 1 + rng.Intn(2)
	c.R = 1 + rng.Intn(3)
	c.MergeFactor = 2 + rng.Intn(15) // F in 2..16
	c.MapBufKB = 2 << rng.Intn(6)    // 2..64
	c.ReduceBufKB = 1 << rng.Intn(7) // 1..64
	c.PageB = 256 << rng.Intn(5)     // 256..4096
	c.SlotCache = 1 + rng.Intn(8)
	c.Replication = 1 + rng.Intn(3)
	c.SSD = rng.Intn(4) == 0
	c.Checksums = rng.Intn(2) == 0
	c.ProgressMS = 500 + rng.Intn(4)*500

	// Hints: centered on plausible values, deliberately wrong (10× off
	// either way) 15% of the time — hints size buffers and tables but
	// must never change answers.
	km := map[string]float64{
		"clickcount": 0.12, "pagefreq": 0.15, "frequsers": 0.12,
		"sessionization": 1.0, "windowcount": 0.25, "trigram": 2.5,
	}[c.Query]
	c.Km = km * (0.5 + rng.Float64())
	keys := int64(c.Users + c.URLs + c.Vocab)
	c.DistinctKeys = 1 + keys/2 + rng.Int63n(keys+1)
	switch rng.Intn(7) {
	case 0:
		c.Km /= 10
		c.DistinctKeys = 1 + c.DistinctKeys/10
	case 1:
		c.Km *= 10
		c.DistinctKeys *= 10
	}

	// Platform-specific knobs.
	if rng.Intn(3) == 0 {
		c.ScanEvery = int64(256 << rng.Intn(5)) // DINC scavenger period
	}
	if rng.Intn(4) == 0 {
		c.SnapshotEvery = []float64{0.25, 0.5}[rng.Intn(2)] // HOP snapshots
	}

	// Fault schedule.
	if rng.Intn(100) < 45 {
		genFaults(rng, &c)
	} else if (c.Query == "clickcount" || c.Query == "pagefreq" || c.Query == "frequsers") &&
		rng.Intn(8) == 0 {
		c.Poison = true
	}

	c.Platforms = AllPlatforms()
	c.Workers2 = 2 + rng.Intn(5) // 2..6

	// Node combining (drawn last so earlier seeds' cases keep their
	// shape): a third of cases fold map outputs per node before the
	// shuffle — a no-op on uncombinable queries and HOP, a full
	// differential dimension everywhere else.
	c.NodeCombine = rng.Intn(3) == 0

	c.Normalize()
	return c
}

// genFaults draws a fault cocktail: independent coins per dimension so
// single-fault and combined-fault cases both occur.
func genFaults(rng *rand.Rand, c *Case) {
	chunks := (c.InputKB + c.ChunkKB - 1) / c.ChunkKB
	if rng.Intn(2) == 0 {
		for n := 1 + rng.Intn(3); n > 0; n-- {
			c.MapFails = append(c.MapFails, Fail{Index: rng.Intn(chunks), Times: 1 + rng.Intn(2)})
		}
	}
	if rng.Intn(10) < 3 {
		reducers := c.R * c.Nodes
		for n := 1 + rng.Intn(2); n > 0; n-- {
			c.ReduceFails = append(c.ReduceFails, Fail{Index: rng.Intn(reducers), Times: 1})
		}
	}
	c.FailPoint = []float64{0, 0.5, 1}[rng.Intn(3)]
	if rng.Intn(10) < 3 {
		c.KillNode = rng.Intn(c.Nodes)
		c.KillFracPct = 20 + rng.Intn(70)
		if rng.Intn(10) < 6 {
			c.CheckpointDiv = 4 + rng.Intn(8)
		}
	}
	if rng.Intn(10) < 3 {
		c.SlowNode = rng.Intn(c.Nodes)
		c.SlowFactor = 1.5 + rng.Float64()*2.5
		c.Speculate = rng.Intn(2) == 0
	}
	if rng.Intn(10) < 3 {
		c.ShufErrPct = 2 + rng.Intn(25)
	}
	if rng.Intn(10) < 4 {
		c.IOErrRate = 0.01 + rng.Float64()*0.14
	}
	if rng.Intn(2) == 0 {
		c.CorruptRate = 0.05 + rng.Float64()*0.25
		c.Checksums = true
	}
	if c.KillFracPct > 0 && c.Checksums && rng.Intn(2) == 0 {
		c.TornWrites = true
	}
	if (c.IOErrRate > 0 || c.CorruptRate > 0) && rng.Intn(4) == 0 {
		all := []int{
			int(storage.MapSpill), int(storage.MapOutput),
			int(storage.ReduceSpill), int(storage.Checkpoint),
		}
		for n := 1 + rng.Intn(2); n > 0; n-- {
			c.DiskClasses = append(c.DiskClasses, all[rng.Intn(len(all))])
		}
	}
	if c.IOErrRate > 0 || c.CorruptRate > 0 {
		// Drawn and discarded (it once sized a disk-fault window) so the
		// draws after it keep their place and every seed names the same
		// case.
		rng.Intn(200)
	}
}
