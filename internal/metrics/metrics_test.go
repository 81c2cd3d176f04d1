package metrics

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// fakeProbe is a scripted probe for sampler tests.
type fakeProbe struct {
	cpuBusy  int64
	diskBusy int64
	read     int64
	maps     int
	fetches  int64
	fn       int64
	out      int64
	gauges   Gauges
}

func (f *fakeProbe) CPUBusyIntegral() int64  { return f.cpuBusy }
func (f *fakeProbe) CPUCapacity() int64      { return 4 }
func (f *fakeProbe) DiskBusyIntegral() int64 { return f.diskBusy }
func (f *fakeProbe) DiskCount() int64        { return 1 }
func (f *fakeProbe) DiskReadBytes() int64    { return f.read }
func (f *fakeProbe) TaskGauge(ph Phase) int  { return f.gauges.Get(ph) }
func (f *fakeProbe) Counts() (int, int64, int64, int64) {
	return f.maps, f.fetches, f.fn, f.out
}

func TestSamplerCollects(t *testing.T) {
	k := sim.NewKernel()
	probe := &fakeProbe{}
	s := NewSampler(probe, time.Second)
	s.Start(k)
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			// Full CPU, full disk during each second.
			probe.cpuBusy += 4 * int64(time.Second)
			probe.diskBusy += int64(time.Second)
			probe.read += 80e6
			probe.maps++
			p.Hold(time.Second)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish(k.Now())
	samples := s.Samples()
	if len(samples) < 4 {
		t.Fatalf("only %d samples", len(samples))
	}
	last := samples[len(samples)-1]
	if last.MapsDone != 5 {
		t.Fatalf("maps=%d", last.MapsDone)
	}
	// Fully-busy CPU leaves no idle ⇒ iowait 0 despite busy disk.
	if last.CPUUtil < 0.99 || last.IOWait > 0.01 {
		t.Fatalf("util=%.2f iowait=%.2f", last.CPUUtil, last.IOWait)
	}
	if last.ReadMBps < 79 || last.ReadMBps > 81 {
		t.Fatalf("read rate %.1f", last.ReadMBps)
	}
}

func TestIOWaitHighWhenCPUIdleDiskBusy(t *testing.T) {
	k := sim.NewKernel()
	probe := &fakeProbe{}
	s := NewSampler(probe, time.Second)
	s.Start(k)
	k.Spawn("driver", func(p *sim.Proc) {
		probe.diskBusy += int64(2 * time.Second) // disk pegged, CPU idle
		p.Hold(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish(k.Now())
	peak := 0.0
	for _, sm := range s.Samples() {
		if sm.IOWait > peak {
			peak = sm.IOWait
		}
	}
	if peak < 0.9 {
		t.Fatalf("peak iowait %.2f, want ~1 (merge-phase signature)", peak)
	}
}

func TestFinishAddsFinalSample(t *testing.T) {
	k := sim.NewKernel()
	probe := &fakeProbe{}
	s := NewSampler(probe, 10*time.Second)
	s.Start(k)
	k.Spawn("w", func(p *sim.Proc) { p.Hold(3 * time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s.Finish(k.Now())
	if len(s.Samples()) == 0 {
		t.Fatal("no samples")
	}
	if s.Samples()[len(s.Samples())-1].T != 3*time.Second {
		t.Fatalf("final sample at %v", s.Samples()[len(s.Samples())-1].T)
	}
	before := len(s.Samples())
	s.Finish(k.Now()) // idempotent
	if len(s.Samples()) != before {
		t.Fatal("double finish added a sample")
	}
}

func TestProgressDefinition1(t *testing.T) {
	samples := []Sample{
		{T: 0},
		{T: time.Second, MapsDone: 5, FetchesDone: 50, FnRecords: 0, OutRecords: 0},
		{T: 2 * time.Second, MapsDone: 10, FetchesDone: 100, FnRecords: 1000, OutRecords: 500},
	}
	tot := Totals{MapTasks: 10, Fetches: 100, FnRecords: 1000, OutRecs: 500}
	pts := Progress(samples, tot)
	if pts[1].Map != 0.5 {
		t.Fatalf("map %f", pts[1].Map)
	}
	// At t=1: shuffle 50%, fn 0%, out 0% ⇒ reduce = 1/3·0.5 ≈ 0.1667.
	if pts[1].Reduce < 0.166 || pts[1].Reduce > 0.167 {
		t.Fatalf("reduce %f", pts[1].Reduce)
	}
	if pts[2].Reduce != 1 || pts[2].Map != 1 {
		t.Fatalf("final point %+v", pts[2])
	}
}

func TestProgressEmptyTotalsComplete(t *testing.T) {
	// A query with no output (or nothing to reduce) counts that
	// component as complete rather than dividing by zero.
	pts := Progress([]Sample{{T: 0}}, Totals{MapTasks: 0, Fetches: 0, FnRecords: 0, OutRecs: 0})
	if pts[0].Reduce != 1 || pts[0].Map != 1 {
		t.Fatalf("%+v", pts[0])
	}
}

func TestProgressClamped(t *testing.T) {
	pts := Progress([]Sample{{T: 0, FetchesDone: 120}}, Totals{MapTasks: 1, Fetches: 100, FnRecords: 1, OutRecs: 1})
	if pts[0].Shuffle > 1 {
		t.Fatalf("shuffle %f not clamped", pts[0].Shuffle)
	}
}

func TestGauges(t *testing.T) {
	var g Gauges
	g.Enter(PhaseMap)
	g.Enter(PhaseMap)
	g.Enter(PhaseMerge)
	g.Leave(PhaseMap)
	if g.Get(PhaseMap) != 1 || g.Get(PhaseMerge) != 1 || g.Get(PhaseReduce) != 0 {
		t.Fatal("gauge counts wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative gauge must panic")
		}
	}()
	g.Leave(PhaseReduce)
}

func TestPhaseStrings(t *testing.T) {
	for ph := Phase(0); ph < NumPhases; ph++ {
		if ph.String() == "phase?" {
			t.Fatalf("phase %d unnamed", ph)
		}
	}
}
