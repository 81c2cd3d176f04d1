package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bytestore"
	"repro/internal/cost"
	"repro/internal/frame"
	"repro/internal/sim"
)

// run executes fn inside a one-process simulation and returns the
// total virtual time.
func run(t *testing.T, model cost.Model, fn func(p *sim.Proc, s *Store)) time.Duration {
	t.Helper()
	k := sim.NewKernel()
	s := NewStore(k, 0, model)
	k.Spawn("t", func(p *sim.Proc) { fn(p, s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return time.Duration(k.Now())
}

func TestAppendReadRoundTrip(t *testing.T) {
	m := cost.Default(1)
	run(t, m, func(p *sim.Proc, s *Store) {
		f := s.Create("spill-1", ReduceSpill)
		s.Append(p, f, []byte("hello "), ReduceSpill)
		s.Append(p, f, []byte("world"), ReduceSpill)
		if f.Size() != 11 {
			t.Fatalf("size=%d", f.Size())
		}
		got := s.ReadAt(p, f, 0, 11, ReduceSpill)
		if !bytes.Equal(got, []byte("hello world")) {
			t.Fatalf("got %q", got)
		}
	})
}

func TestIOTimeCharged(t *testing.T) {
	m := cost.Default(1)
	d := run(t, m, func(p *sim.Proc, s *Store) {
		f := s.Create("f", MapSpill)
		s.Append(p, f, make([]byte, 80*1e6), MapSpill) // 80MB at 80MB/s = 1s + 4ms seek
	})
	want := time.Second + 4*time.Millisecond
	if d != want {
		t.Fatalf("charged %v want %v", d, want)
	}
}

func TestCountersPerClass(t *testing.T) {
	m := cost.Default(1)
	run(t, m, func(p *sim.Proc, s *Store) {
		f := s.Create("f", MapSpill)
		s.Append(p, f, make([]byte, 100), MapSpill)
		s.ReadAt(p, f, 0, 40, MapSpill)
		c := s.Counters()
		if c.WrittenBytes[MapSpill] != 100 || c.ReadBytes[MapSpill] != 40 {
			t.Fatalf("bytes: %+v", c)
		}
		if c.WriteReqs[MapSpill] != 1 || c.ReadReqs[MapSpill] != 1 {
			t.Fatalf("reqs: %+v", c)
		}
		if c.TotalBytes() != 140 || c.TotalReqs() != 2 {
			t.Fatalf("totals: %d/%d", c.TotalBytes(), c.TotalReqs())
		}
	})
}

func TestReadAllSegments(t *testing.T) {
	m := cost.Default(1)
	run(t, m, func(p *sim.Proc, s *Store) {
		f := s.Create("f", ReduceSpill)
		s.Append(p, f, make([]byte, 1000), ReduceSpill)
		s.ReadAll(p, f, 300, ReduceSpill)
		if got := s.Counters().ReadReqs[ReduceSpill]; got != 4 {
			t.Fatalf("segmented read made %d requests, want 4", got)
		}
	})
}

func TestIntermediateOnSSD(t *testing.T) {
	// The Fig 2(d) configuration: intermediates on SSD must be charged
	// on the SSD arm and be faster, while input stays on HDD.
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m)
	s.Intermediate = cost.SSD
	k.Spawn("t", func(p *sim.Proc) {
		f := s.Create("spill", ReduceSpill)
		s.Append(p, f, make([]byte, 1e6), ReduceSpill)
		if s.Arm(cost.SSD).BusyIntegral() == 0 {
			t.Error("SSD arm unused")
		}
		if s.Arm(cost.HDD).BusyIntegral() != 0 {
			t.Error("HDD arm used for intermediate data")
		}
		s.ChargeInputRead(p, 1e6)
		if s.Arm(cost.HDD).BusyIntegral() == 0 {
			t.Error("input read must stay on HDD")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskContentionSerializes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates two 80MB writers at full scale")
	}
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m)
	var finish []time.Duration
	for i := 0; i < 2; i++ {
		name := "w" + string(rune('0'+i))
		k.Spawn(name, func(p *sim.Proc) {
			f := s.Create(name, MapSpill)
			s.Append(p, f, make([]byte, 80*1e6), MapSpill)
			finish = append(finish, time.Duration(k.Now()))
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if finish[1]-finish[0] < time.Second {
		t.Fatalf("writes not serialized: %v", finish)
	}
}

func TestDeleteFreesMemory(t *testing.T) {
	m := cost.Default(1)
	run(t, m, func(p *sim.Proc, s *Store) {
		f := s.Create("f", MapOutput)
		s.Append(p, f, make([]byte, 500), MapOutput)
		if f.Size() != 500 || len(s.files) != 1 {
			t.Fatalf("size=%d, %d files", f.Size(), len(s.files))
		}
		s.Delete(f)
		if f.Size() != 0 || len(s.files) != 0 {
			t.Fatalf("after delete: size=%d, %d files", f.Size(), len(s.files))
		}
		s.Create("f", MapOutput) // the name is free again
	})
}

func TestDuplicateCreatePanics(t *testing.T) {
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m)
	k.Spawn("t", func(p *sim.Proc) {
		s.Create("f", MapSpill)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate create")
			}
		}()
		s.Create("f", MapSpill)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReadPastEOFPanics(t *testing.T) {
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m)
	k.Spawn("t", func(p *sim.Proc) {
		f := s.Create("f", MapSpill)
		s.Append(p, f, []byte("abc"), MapSpill)
		defer func() {
			if recover() == nil {
				t.Error("expected panic reading past EOF")
			}
		}()
		s.ReadAt(p, f, 0, 4, MapSpill)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAdd(t *testing.T) {
	var a, b Counters
	a.ReadBytes[MapInput] = 10
	b.ReadBytes[MapInput] = 5
	b.WriteReqs[ReduceSpill] = 2
	a.Add(&b)
	if a.ReadBytes[MapInput] != 15 || a.WriteReqs[ReduceSpill] != 2 {
		t.Fatalf("%+v", a)
	}
}

func TestIOClassStrings(t *testing.T) {
	for c := IOClass(0); c < NumIOClasses; c++ {
		if c.String() == "io?" {
			t.Fatalf("class %d has no name", c)
		}
	}
}

// TestAppendOwnedHandsTheBufferOver pins the buffer-ownership rules:
// an empty file adopts an owned buffer (reads are views of the very
// array the writer handed over), a second append to the same file
// copies without growing into the lender's array, Append still copies,
// and views lent by reads stay valid after Delete.
func TestAppendOwnedHandsTheBufferOver(t *testing.T) {
	run(t, cost.Default(1), func(p *sim.Proc, s *Store) {
		buf := append(make([]byte, 0, 64), "sorted run"...)
		f := s.Create("owned", ReduceSpill)
		s.AppendOwned(p, f, buf, ReduceSpill, nil)
		view := s.ReadAt(p, f, 0, f.Size(), ReduceSpill)
		if &view[0] != &buf[0] {
			t.Fatal("an empty file copied the buffer it was handed")
		}
		s.AppendOwned(p, f, []byte(" + tail"), ReduceSpill, nil)
		if got := s.ReadAll(p, f, 0, ReduceSpill); string(got) != "sorted run + tail" {
			t.Fatalf("file holds %q", got)
		}
		if string(buf[:cap(buf)][len(buf):len(buf)+2]) != "\x00\x00" {
			t.Fatal("the second append grew into the lender's backing array")
		}
		s.Delete(f)
		if string(view) != "sorted run" || f.Size() != 0 {
			t.Fatalf("after Delete the lent view reads %q, size %d", view, f.Size())
		}

		mine := []byte("copied")
		g := s.Create("copied", ReduceSpill)
		s.Append(p, g, mine, ReduceSpill)
		if got := s.ReadAt(p, g, 0, g.Size(), ReduceSpill); &got[0] == &mine[0] {
			t.Fatal("Append adopted the caller's buffer")
		}
	})
}

// TestDeleteRecyclesAGrownFile: a file Append grew hands its bytes back
// to bytestore at Delete, so views read from it die there. Under -race
// the pool poisons what it takes back, which is what makes a read
// through such a view fail loudly; an adopted buffer is never recycled
// (TestAppendOwnedHandsTheBufferOver).
func TestDeleteRecyclesAGrownFile(t *testing.T) {
	probe := bytestore.Get(1)[:1]
	probe[0] = 0
	bytestore.Put(probe)
	if probe[0] != bytestore.Poison {
		t.Skip("recycled buffers are poisoned only under -race")
	}
	run(t, cost.Default(1), func(p *sim.Proc, s *Store) {
		f := s.Create("bucket", ReduceSpill)
		s.Append(p, f, []byte("page one, "), ReduceSpill)
		s.Append(p, f, []byte("page two"), ReduceSpill)
		view := s.ReadAll(p, f, 0, ReduceSpill)
		if string(view) != "page one, page two" {
			t.Fatalf("file holds %q", view)
		}
		s.Delete(f)
		if !bytes.Equal(view, bytes.Repeat([]byte{bytestore.Poison}, len(view))) {
			t.Fatalf("a view of a deleted grown file reads %q, want poison", view)
		}
	})
}

// TestCorruptionClonesAnAdoptedBuffer: a write persisted with a flipped
// bit must carry the flip in the file's own bytes — the lender still
// reads its buffer (shuffle segments served from memory are views of
// it) — and the verified read must still catch it. (At rate 1 the roll
// hits about every other write, so several files are written.)
func TestCorruptionClonesAnAdoptedBuffer(t *testing.T) {
	run(t, cost.Default(1), func(p *sim.Proc, s *Store) {
		s.Checksums = true
		df := &DiskFaults{Seed: 9, CorruptRate: 1}
		df.Classes[MapOutput] = true
		s.SetFaults(df)
		want := bytes.Repeat([]byte("partition bytes "), 8)
		flipped := 0
		for i := 0; i < 16; i++ {
			buf := bytes.Clone(want)
			f := s.Create(fmt.Sprintf("map%d.out", i), MapOutput)
			s.AppendOwned(p, f, buf, MapOutput, []int64{64, 64})
			if !bytes.Equal(buf, want) {
				t.Fatal("the bit flip is visible through the lender's slice")
			}
			_, err0 := s.ReadAtChecked(p, f, 0, 64, MapOutput)
			_, err1 := s.ReadAtChecked(p, f, 64, 64, MapOutput)
			if bytes.Equal(f.Data(), want) {
				if &f.Data()[0] != &buf[0] || err0 != nil || err1 != nil {
					t.Fatalf("clean write %d: copied, or read back as %v / %v", i, err0, err1)
				}
				continue
			}
			flipped++
			if (err0 == nil) == (err1 == nil) || (err0 != nil && err0 != frame.ErrCorrupt) || (err1 != nil && err1 != frame.ErrCorrupt) {
				t.Fatalf("write %d: frame reads returned %v and %v, want ErrCorrupt from exactly the damaged frame", i, err0, err1)
			}
		}
		if flipped == 0 {
			t.Fatal("test setup: no write was corrupted")
		}
	})
}
