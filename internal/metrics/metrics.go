// Package metrics collects the measurements the paper reports:
// incremental map and reduce progress (Definition 1), task timelines
// (Fig 2(a)), CPU utilization and iowait (Fig 2(b,c) etc.), and
// per-class spill volumes (Tables 1, 3, 4).
//
// Definition 1 (quoted): "The map progress is defined to be the
// percentage of map tasks that have completed. The reduce progress is
// defined to be: 1/3 · % of shuffle tasks completed + 1/3 · % of
// combine function or reduce function completed + 1/3 · % of reduce
// output produced." Multi-pass merge work is deliberately not counted
// — that is the paper's point.
//
// Sampling runs as a daemon process on the simulation kernel; the
// engine exposes raw gauges through the Probe interface and the
// percentages are normalized after the run, when the true totals of
// reduce-function records and output records are known.
package metrics

import (
	"time"

	"repro/internal/sim"
)

// Phase labels the task-timeline gauges (the four operations of
// Fig 2(a)).
type Phase int

// Timeline phases.
const (
	PhaseMap     Phase = iota // map tasks running (includes map-side sort)
	PhaseShuffle              // reduce tasks currently fetching map output
	PhaseMerge                // reduce tasks in multi-pass merge work
	PhaseReduce               // reduce tasks applying reduce/finalize + output
	PhaseRecover              // restarted reduce tasks reloading checkpointed state
	NumPhases
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseMap:
		return "map"
	case PhaseShuffle:
		return "shuffle"
	case PhaseMerge:
		return "merge"
	case PhaseReduce:
		return "reduce"
	case PhaseRecover:
		return "recover"
	}
	return "phase?"
}

// Probe is what the sampler reads each tick. All methods must be cheap
// and safe to call from a sim process.
type Probe interface {
	// CPUBusyIntegral returns Σ over nodes of ∫ busyCores dt (ns units).
	CPUBusyIntegral() int64
	// CPUCapacity returns cores × nodes.
	CPUCapacity() int64
	// DiskBusyIntegral returns Σ over nodes/devices of ∫ armBusy dt.
	DiskBusyIntegral() int64
	// DiskCount returns the number of disk arms summed in
	// DiskBusyIntegral.
	DiskCount() int64
	// DiskReadBytes returns cumulative physical bytes read.
	DiskReadBytes() int64
	// TaskGauge returns the number of tasks currently in phase ph.
	TaskGauge(ph Phase) int
	// Counts returns the raw progress counters: completed map tasks,
	// completed shuffle fetches, records processed by combine/reduce,
	// and output records produced.
	Counts() (mapsDone int, fetchesDone, fnRecords, outRecords int64)
}

// Sample is one sampling instant with raw counter values.
type Sample struct {
	T time.Duration

	MapsDone    int
	FetchesDone int64
	FnRecords   int64
	OutRecords  int64

	Tasks [NumPhases]int

	CPUUtil  float64 // mean busy fraction of all cores since last sample
	IOWait   float64 // estimated iowait fraction since last sample
	ReadMBps float64 // physical disk read rate since last sample
}

// Sampler drives periodic collection.
type Sampler struct {
	probe    Probe
	interval time.Duration
	samples  []Sample

	lastCPU  int64
	lastDisk int64
	lastRead int64
	lastT    int64
}

// NewSampler creates a sampler reading probe every interval of virtual
// time. Attach it to a kernel with Start.
func NewSampler(probe Probe, interval time.Duration) *Sampler {
	return &Sampler{probe: probe, interval: interval}
}

// Start spawns the sampling daemon on k.
func (s *Sampler) Start(k *sim.Kernel) {
	k.SpawnDaemon("metrics.sampler", func(p *sim.Proc) {
		for {
			p.Hold(s.interval)
			s.take(p.Now())
		}
	})
}

// Finish takes a final sample at the end of the run (the daemon may
// not get the last tick) at the given virtual time.
func (s *Sampler) Finish(now int64) {
	if len(s.samples) == 0 || int64(s.samples[len(s.samples)-1].T) < now {
		s.take(now)
	}
}

func (s *Sampler) take(now int64) {
	dt := now - s.lastT
	var sm Sample
	sm.T = time.Duration(now)
	sm.MapsDone, sm.FetchesDone, sm.FnRecords, sm.OutRecords = s.probe.Counts()
	for ph := Phase(0); ph < NumPhases; ph++ {
		sm.Tasks[ph] = s.probe.TaskGauge(ph)
	}
	cpu := s.probe.CPUBusyIntegral()
	disk := s.probe.DiskBusyIntegral()
	read := s.probe.DiskReadBytes()
	if dt > 0 {
		sm.CPUUtil = float64(cpu-s.lastCPU) / float64(dt*s.probe.CPUCapacity())
		diskBusy := float64(disk-s.lastDisk) / float64(dt*s.probe.DiskCount())
		// iowait heuristic: the CPU waits on I/O to the extent the
		// disks are busy while cores are idle.
		idle := 1 - sm.CPUUtil
		sm.IOWait = diskBusy
		if sm.IOWait > idle {
			sm.IOWait = idle
		}
		if sm.IOWait < 0 {
			sm.IOWait = 0
		}
		sm.ReadMBps = float64(read-s.lastRead) / 1e6 / (float64(dt) / float64(time.Second))
	}
	s.lastCPU, s.lastDisk, s.lastRead, s.lastT = cpu, disk, read, now
	s.samples = append(s.samples, sm)
}

// Samples returns the raw samples.
func (s *Sampler) Samples() []Sample { return s.samples }

// ProgressPoint is a normalized progress curve point (percentages in
// [0,1]).
type ProgressPoint struct {
	T       time.Duration
	Map     float64 // Definition 1 map progress
	Reduce  float64 // Definition 1 reduce progress
	Shuffle float64 // component: shuffle fetches done
	Fn      float64 // component: combine/reduce records processed
	Out     float64 // component: output records produced
}

// Totals are the final denominators used for normalization.
type Totals struct {
	MapTasks  int
	Fetches   int64
	FnRecords int64 // total records that must pass combine/reduce
	OutRecs   int64 // total output records
}

// frac is n/total, treating an empty total as already complete.
func frac(n, total int64) float64 {
	if total <= 0 {
		return 1
	}
	f := float64(n) / float64(total)
	if f > 1 {
		f = 1
	}
	return f
}

// Progress converts raw samples into Definition 1 progress curves.
func Progress(samples []Sample, tot Totals) []ProgressPoint {
	out := make([]ProgressPoint, len(samples))
	for i, sm := range samples {
		p := ProgressPoint{
			T:       sm.T,
			Map:     frac(int64(sm.MapsDone), int64(tot.MapTasks)),
			Shuffle: frac(sm.FetchesDone, tot.Fetches),
			Fn:      frac(sm.FnRecords, tot.FnRecords),
			Out:     frac(sm.OutRecords, tot.OutRecs),
		}
		p.Reduce = (p.Shuffle + p.Fn + p.Out) / 3
		out[i] = p
	}
	return out
}

// Gauges tracks live per-phase task counts for the timeline. The
// engine moves tasks between phases; the zero value is ready to use.
type Gauges struct {
	n [NumPhases]int
}

// Enter increments the gauge for ph.
func (g *Gauges) Enter(ph Phase) { g.n[ph]++ }

// Leave decrements the gauge for ph.
func (g *Gauges) Leave(ph Phase) {
	g.n[ph]--
	if g.n[ph] < 0 {
		panic("metrics: negative gauge for " + ph.String())
	}
}

// Get returns the current count for ph.
func (g *Gauges) Get(ph Phase) int { return g.n[ph] }
