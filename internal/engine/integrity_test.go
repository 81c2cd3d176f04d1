package engine

import (
	"reflect"
	"testing"

	"repro/internal/kvenc"
	"repro/internal/mr"
	"repro/internal/queries"
	"repro/internal/storage"
)

// diskPlan builds the standard fault cocktail for a platform: transient
// I/O errors everywhere, plus bit-flip corruption where the platform
// has the recovery ladder for it (everything but HOP), plus torn
// checkpoint tails where checkpoints exist (the incremental platforms,
// which the caller arms with KillAtMapProgress + CheckpointEvery).
func diskPlan(pl Platform) DiskFaultPlan {
	d := DiskFaultPlan{IOErrorRate: 0.05}
	if pl != HOP {
		// The flip dice roll once per append, and this scale only writes
		// a few dozen frames — a high rate keeps detections guaranteed.
		d.CorruptRate = 0.2
	}
	if pl.Incremental() {
		d.TornWrites = true
	}
	return d
}

// TestIntegrityDifferential is the tentpole differential: every
// platform, run under injected transient I/O errors, write-time bit
// flips, and (for the checkpointing platforms) torn checkpoint tails
// at a node kill, must produce answers bit-identical to its fault-free
// run. The recovery machinery must actually fire — retries, detected
// corrupt frames, torn-tail fallbacks — or the injection was inert.
func TestIntegrityDifferential(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime

		spec := clickCountSpec(m, input, pl)
		spec.Cluster.Checksums = true
		spec.Faults.Disk = diskPlan(pl)
		if pl != HOP {
			// Force second-wave shuffle fetches onto the disk path (§3.2):
			// flipped map-output frames are only detectable when something
			// reads them back.
			spec.Cluster.SlotCache = 1
			spec.Cluster.ReduceSlots = 1
		}
		if pl.Incremental() {
			// Torn writes surface when a node dies holding checkpoints.
			spec.Faults.KillAtMapProgress = map[int]float64{2: 0.5}
			spec.Faults.HeartbeatInterval = mf / 100
			spec.Faults.HeartbeatTimeout = mf / 25
			spec.CheckpointEvery = mf / 8
		}
		faulty := runJob(t, spec)

		equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
		if faulty.IORetries == 0 {
			t.Errorf("%v: no transient I/O retries recorded", pl)
		}
		if pl != HOP && faulty.CorruptFramesDetected == 0 {
			t.Errorf("%v: no corrupt frames detected under %.0f%% flip rate",
				pl, 100*spec.Faults.Disk.CorruptRate)
		}
		if pl.Incremental() && faulty.TornWritesRepaired == 0 {
			t.Errorf("%v: no torn checkpoint tails repaired after the kill", pl)
		}
	}
}

// TestIntegrityDeterminismAcrossWorkers runs the full fault cocktail
// for every worker-pool size and demands bit-identical reports: fault
// injection is drawn from virtual state only, never from host
// scheduling.
func TestIntegrityDeterminismAcrossWorkers(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, DINCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime
		var base *Report
		for _, workers := range []int{1, 3, 8} {
			spec := clickCountSpec(m, input, pl)
			spec.Cluster.Parallelism = workers
			spec.Cluster.Checksums = true
			spec.Cluster.SlotCache = 1
			spec.Cluster.ReduceSlots = 1
			spec.Faults.Disk = diskPlan(pl)
			if pl.Incremental() {
				spec.Faults.KillAtMapProgress = map[int]float64{2: 0.5}
				spec.Faults.HeartbeatInterval = mf / 100
				spec.Faults.HeartbeatTimeout = mf / 25
				spec.CheckpointEvery = mf / 8
			}
			rep := runJob(t, spec)
			rep.Workers = 0
			rep.WallTime = 0
			if base == nil {
				base = rep
			} else if !reflect.DeepEqual(base, rep) {
				t.Errorf("%v: faulted report differs with %d workers (field %s)",
					pl, workers, ReportDiff(base, rep))
			}
		}
	}
}

// TestCheckpointCorruptionFallback bit-flips checkpoint images (and
// only those: the injection is class-targeted) at a high rate, then
// forces restarts. Restores must fall back through the image chain —
// previous good image, else full replay — with every rejected image
// counted, and the answers must come out identical to the clean run.
func TestCheckpointCorruptionFallback(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{INCHash, DINCHash} {
		clean := runJob(t, clickCountSpec(m, input, pl))
		mf := clean.MapFinishTime

		spec := clickCountSpec(m, input, pl)
		spec.Cluster.Checksums = true
		spec.CheckpointEvery = mf / 10
		spec.Faults.Disk = DiskFaultPlan{
			CorruptRate: 0.9,
			Classes:     []storage.IOClass{storage.Checkpoint},
		}
		spec.Faults.KillAtMapProgress = map[int]float64{2: 0.75}
		spec.Faults.HeartbeatInterval = mf / 100
		spec.Faults.HeartbeatTimeout = mf / 25
		faulty := runJob(t, spec)

		equalStrings(t, pl.String(), sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
		if faulty.Checkpoints == 0 {
			t.Fatalf("%v: no checkpoints taken", pl)
		}
		if faulty.CorruptFramesDetected == 0 {
			t.Errorf("%v: 90%% checkpoint flip rate detected nothing at restore", pl)
		}
	}
}

// TestTornCheckpointFallback tears the latest checkpoint tail at the
// node kill and checks the restore walks back to the previous good
// image (TornWritesRepaired counts each torn tail it steps over)
// without changing a single answer.
func TestTornCheckpointFallback(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	clean := runJob(t, clickCountSpec(m, input, INCHash))
	mf := clean.MapFinishTime

	spec := clickCountSpec(m, input, INCHash)
	spec.Cluster.Checksums = true
	spec.CheckpointEvery = mf / 10
	spec.Faults.Disk = DiskFaultPlan{TornWrites: true}
	spec.Faults.KillAtMapProgress = map[int]float64{2: 0.75}
	spec.Faults.HeartbeatInterval = mf / 100
	spec.Faults.HeartbeatTimeout = mf / 25
	faulty := runJob(t, spec)

	equalStrings(t, "torn", sortedOutputs(clean, kvLine), sortedOutputs(faulty, kvLine))
	if faulty.TornWritesRepaired == 0 {
		t.Error("no torn checkpoint tails detected at restore")
	}
	if faulty.CorruptFramesDetected < faulty.TornWritesRepaired {
		t.Errorf("CorruptFramesDetected = %d < TornWritesRepaired = %d",
			faulty.CorruptFramesDetected, faulty.TornWritesRepaired)
	}
}

// TestChecksumOverheadAccounting checks both sides of the overhead
// contract: with integrity off a clean run pays zero overhead and
// records zero integrity events, and with checksums on a clean run
// keeps its answers, reports the framing bytes per class, and stays
// under 5% of total I/O.
func TestChecksumOverheadAccounting(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, HOP, MRHash, INCHash, DINCHash} {
		off := runJob(t, clickCountSpec(m, input, pl))
		if off.ChecksumOverheadBytes != 0 || off.IORetries != 0 ||
			off.CorruptFramesDetected != 0 || off.QuarantinedRecords != 0 {
			t.Errorf("%v: integrity-off run recorded integrity activity: %+v", pl, off)
		}

		spec := clickCountSpec(m, input, pl)
		spec.Cluster.Checksums = true
		on := runJob(t, spec)
		equalStrings(t, pl.String(), sortedOutputs(off, kvLine), sortedOutputs(on, kvLine))
		if on.ChecksumOverheadBytes <= 0 {
			t.Errorf("%v: checksums on but zero overhead bytes", pl)
		}
		if on.ChecksumOverheadBytes >= on.TotalIOBytes/20 {
			t.Errorf("%v: checksum overhead %d ≥ 5%% of total I/O %d",
				pl, on.ChecksumOverheadBytes, on.TotalIOBytes)
		}
		var byClass int64
		for i := 0; i < int(storage.NumIOClasses); i++ {
			byClass += on.ChecksumOverheadByClass[i]
		}
		if byClass != on.ChecksumOverheadBytes {
			t.Errorf("%v: per-class overhead sums to %d, total says %d",
				pl, byClass, on.ChecksumOverheadBytes)
		}
	}
}

// poisonQuery wraps a query so that Map panics on records whose
// timestamp ends in the poison suffix — a deterministic, content-based
// subset, the way real poison records behave. filterQuery skips the
// same subset quietly, giving the reference answer a quarantined run
// must reproduce.
type poisonQuery struct {
	inner  mr.Query
	filter bool // skip poisoned records instead of panicking
}

func poisoned(record []byte) bool {
	// 13-digit ms timestamp prefix; ~1% of records end in "37".
	return len(record) >= 13 && record[11] == '3' && record[12] == '7'
}

func (q *poisonQuery) Name() string { return q.inner.Name() }

func (q *poisonQuery) Map(record []byte, emit func(k, v []byte)) {
	if poisoned(record) {
		if q.filter {
			return
		}
		panic("poison record")
	}
	q.inner.Map(record, emit)
}

func (q *poisonQuery) Reduce(key []byte, values kvenc.ValueIter, out mr.OutputWriter) {
	q.inner.Reduce(key, values, out)
}

// TestBadRecordQuarantine runs a query that panics on ~1% of its input
// under a skip budget and checks the poisoned records are quarantined
// — counted, skipped, their partial emits rolled back — with answers
// identical to a run that filters the same records without panicking.
func TestBadRecordQuarantine(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	for _, pl := range []Platform{SortMerge, MRHash} {
		mkSpec := func(filter bool) JobSpec {
			spec := clickCountSpec(m, input, pl)
			spec.Query = &poisonQuery{inner: queries.NewClickCount(), filter: filter}
			return spec
		}
		ref := runJob(t, mkSpec(true))

		spec := mkSpec(false)
		spec.SkipBadRecords = 1 << 20
		quar := runJob(t, spec)

		equalStrings(t, pl.String(), sortedOutputs(ref, kvLine), sortedOutputs(quar, kvLine))
		if quar.QuarantinedRecords == 0 {
			t.Fatalf("%v: no records quarantined", pl)
		}
		if ref.QuarantinedRecords != 0 {
			t.Errorf("%v: filter run quarantined %d records", pl, ref.QuarantinedRecords)
		}
		if quar.MapInputRecords != ref.MapInputRecords {
			t.Errorf("%v: input record counts differ: %d vs %d",
				pl, quar.MapInputRecords, ref.MapInputRecords)
		}
	}
}

// TestQuarantineCountDeterministic re-runs the quarantined job across
// worker-pool sizes: the quarantined-record count is part of the
// report and must be bit-stable like everything else.
func TestQuarantineCountDeterministic(t *testing.T) {
	m := testModel()
	input := testClicks(t, 192<<10, 12<<10)
	var base *Report
	for _, workers := range []int{1, 4} {
		spec := clickCountSpec(m, input, SortMerge)
		spec.Query = &poisonQuery{inner: queries.NewClickCount()}
		spec.SkipBadRecords = 1 << 20
		spec.Cluster.Parallelism = workers
		rep := runJob(t, spec)
		rep.Workers = 0
		rep.WallTime = 0
		if base == nil {
			base = rep
		} else if !reflect.DeepEqual(base, rep) {
			t.Errorf("quarantined report differs with %d workers (field %s)",
				workers, ReportDiff(base, rep))
		}
	}
}

// TestDiskFaultPlanValidation rejects malformed integrity plans up
// front, including the HOP carve-outs.
func TestDiskFaultPlanValidation(t *testing.T) {
	m := testModel()
	input := testClicks(t, 48<<10, 12<<10)
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"negative io-error rate", func(s *JobSpec) {
			s.Faults.Disk.IOErrorRate = -0.1
		}},
		{"io-error rate of one", func(s *JobSpec) {
			s.Faults.Disk.IOErrorRate = 1.0
		}},
		{"negative corrupt rate", func(s *JobSpec) {
			s.Cluster.Checksums = true
			s.Faults.Disk.CorruptRate = -0.1
		}},
		{"corruption without checksums", func(s *JobSpec) {
			s.Faults.Disk.CorruptRate = 0.1
		}},
		{"torn writes without checksums", func(s *JobSpec) {
			s.Faults.Disk.TornWrites = true
			s.Faults.KillAtMapProgress = map[int]float64{0: 0.5}
		}},
		{"torn writes without kills", func(s *JobSpec) {
			s.Cluster.Checksums = true
			s.Faults.Disk.TornWrites = true
		}},
		{"io class out of range", func(s *JobSpec) {
			s.Faults.Disk.IOErrorRate = 0.1
			s.Faults.Disk.Classes = []storage.IOClass{storage.NumIOClasses}
		}},
		{"negative skip budget", func(s *JobSpec) {
			s.SkipBadRecords = -1
		}},
		{"corruption on hop", func(s *JobSpec) {
			s.Platform = HOP
			s.Cluster.Checksums = true
			s.Faults.Disk.CorruptRate = 0.1
		}},
		{"hop io-error rate too high", func(s *JobSpec) {
			s.Platform = HOP
			s.Faults.Disk.IOErrorRate = 0.5
		}},
	}
	for _, tc := range cases {
		spec := clickCountSpec(m, input, SortMerge)
		tc.mutate(&spec)
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: spec accepted, want rejection", tc.name)
		}
	}
}
