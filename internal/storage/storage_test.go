package storage

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bytestore"
	"repro/internal/cost"
	"repro/internal/frame"
	"repro/internal/kvenc"
	"repro/internal/sim"
	"repro/internal/substrate"
)

// run executes fn inside a one-process simulation on a store whose
// spill files live in sc (in memory when nil) and returns the total
// virtual time.
func run(t *testing.T, model cost.Model, sc *Scratch, fn func(p *sim.Proc, s *Store)) time.Duration {
	t.Helper()
	k := sim.NewKernel()
	s := NewStore(k, 0, model, sc)
	k.Spawn("t", func(p *sim.Proc) { fn(p, s) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return time.Duration(k.Now())
}

// media runs fn once per medium a spill file can live on: memory (a nil
// scratch) and disk (a scratch file in a test directory).
func media(t *testing.T, fn func(t *testing.T, sc *Scratch)) {
	t.Run("memory", func(t *testing.T) { fn(t, nil) })
	t.Run("disk", func(t *testing.T) { fn(t, testScratch(t)) })
}

// readAt is ReadAtChecked failing the test on a checksum mismatch,
// returning the file's bytes it read as ReadAll lends them.
func readAt(t *testing.T, p *sim.Proc, s *Store, f *File, off, n int64, class IOClass) []byte {
	if err := s.ReadAtChecked(p, f, off, n, class); err != nil {
		t.Fatal(err)
	}
	return f.get()[off : off+n : off+n]
}

func testScratch(t *testing.T) *Scratch {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	sc, err := OpenScratch()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return sc
}

func TestAppendReadRoundTrip(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("spill-1", ReduceSpill)
			s.Append(p, f, []byte("hello "), ReduceSpill)
			s.Append(p, f, []byte("world"), ReduceSpill)
			if f.Size() != 11 {
				t.Fatalf("size=%d", f.Size())
			}
			got := readAt(t, p, s, f, 0, 11, ReduceSpill)
			if !bytes.Equal(got, []byte("hello world")) {
				t.Fatalf("got %q", got)
			}
		})
	})
}

func TestIOTimeCharged(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		d := run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("f", MapSpill)
			s.Append(p, f, make([]byte, 80*1e6), MapSpill) // 80MB at 80MB/s = 1s + 4ms seek
		})
		want := time.Second + 4*time.Millisecond
		if d != want {
			t.Fatalf("charged %v want %v", d, want)
		}
	})
}

func TestCountersPerClass(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("f", MapSpill)
			s.Append(p, f, make([]byte, 100), MapSpill)
			readAt(t, p, s, f, 0, 40, MapSpill)
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
	})
}

func TestReadAllSegments(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("f", ReduceSpill)
			s.Append(p, f, make([]byte, 1000), ReduceSpill)
			s.ReadAll(p, f, 300, ReduceSpill)
			if got := s.Counters().ReadReqs[ReduceSpill]; got != 4 {
				t.Fatalf("segmented read made %d requests, want 4", got)
			}
		})
	})
}

func TestIntermediateOnSSD(t *testing.T) {
	// The Fig 2(d) configuration: intermediates on SSD must be charged
	// on the SSD arm and be faster, while input stays on HDD.
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m, nil)
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
		s.Charge(p, MapInput, 1e6, false)
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
	s := NewStore(k, 0, m, nil)
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
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("f", MapSpill)
			s.Append(p, f, make([]byte, 500), MapSpill)
			s.ReadAll(p, f, 0, MapSpill)
			if f.Size() != 500 || len(s.files) != 1 {
				t.Fatalf("size=%d, %d files", f.Size(), len(s.files))
			}
			s.Delete(f)
			if f.Size() != 0 || len(s.files) != 0 || f.data != nil || f.exts != nil || f.lent != nil {
				t.Fatalf("after delete: size=%d, %d files, buffers kept", f.Size(), len(s.files))
			}
			s.Create("f", MapSpill) // the name is free again
		})
	})
}

func TestDuplicateCreatePanics(t *testing.T) {
	m := cost.Default(1)
	k := sim.NewKernel()
	s := NewStore(k, 0, m, nil)
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
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("f", MapSpill)
			s.Append(p, f, []byte("abc"), MapSpill)
			defer func() {
				if recover() == nil {
					t.Error("expected panic reading past EOF")
				}
			}()
			readAt(t, p, s, f, 0, 4, MapSpill)
		})
	})
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

// TestAppendOwnedHandsTheBufferOver pins the buffer-ownership rules of
// an in-memory file: an empty file adopts an owned buffer (reads are
// views of the very array the writer handed over), a second append to
// the same file copies without growing into the lender's array, Append
// still copies, and views lent by reads stay valid after Delete.
func TestAppendOwnedHandsTheBufferOver(t *testing.T) {
	run(t, cost.Default(1), nil, func(p *sim.Proc, s *Store) {
		buf := append(make([]byte, 0, 64), "sorted run"...)
		f := s.Create("owned", ReduceSpill)
		s.AppendOwned(p, f, buf, ReduceSpill, nil)
		view := readAt(t, p, s, f, 0, f.Size(), ReduceSpill)
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
		if got := readAt(t, p, s, g, 0, g.Size(), ReduceSpill); &got[0] == &mine[0] {
			t.Fatal("Append adopted the caller's buffer")
		}
	})
}

// TestDeleteRecyclesAGrownFile: every buffer a read of a disk file
// lent goes back to bytestore at Delete, so views read from it die
// there. Under -race the pool poisons what it takes back, which is what
// makes a read through such a view fail loudly; memory is never
// recycled (TestAppendOwnedHandsTheBufferOver).
func TestDeleteRecyclesAGrownFile(t *testing.T) {
	probe := bytestore.Get(1)[:1]
	probe[0] = 0
	bytestore.Put(probe)
	if probe[0] != bytestore.Poison {
		t.Skip("recycled buffers are poisoned only under -race")
	}
	run(t, cost.Default(1), testScratch(t), func(p *sim.Proc, s *Store) {
		f := s.Create("bucket", ReduceSpill)
		s.Append(p, f, []byte("page one, "), ReduceSpill)
		s.Append(p, f, []byte("page two"), ReduceSpill)
		view := s.ReadAll(p, f, 0, ReduceSpill)
		if string(view) != "page one, page two" {
			t.Fatalf("file holds %q", view)
		}
		s.Delete(f)
		if !bytes.Equal(view, bytes.Repeat([]byte{bytestore.Poison}, len(view))) {
			t.Fatalf("a view of a deleted file reads %q, want poison", view)
		}
	})
}

// TestCorruptionClonesAnAdoptedBuffer: a write persisted with a flipped
// bit must carry the flip in the file's own bytes — the lender still
// reads its buffer (shuffle segments served from memory are views of
// it) — and the verified read must still catch it. (At rate 1 the roll
// hits about every other write, so several files are written.)
func TestCorruptionClonesAnAdoptedBuffer(t *testing.T) {
	run(t, cost.Default(1), nil, func(p *sim.Proc, s *Store) {
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
			err0 := s.ReadAtChecked(p, f, 0, 64, MapOutput)
			err1 := s.ReadAtChecked(p, f, 64, 64, MapOutput)
			if err0 == nil && err1 == nil {
				if &f.get()[0] != &buf[0] {
					t.Fatalf("clean write %d was copied", i)
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

// pattern returns n bytes that differ from their neighbours, offset by
// seed, so a misplaced extent or page shows.
func pattern(n, seed int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + seed)
	}
	return b
}

// TestWriteBehindPageBoundary: appends that fill the write-behind page
// exactly, overflow it by a byte, land after a flush, or are many pages
// long read back the same on both media, through Append and
// AppendOwned, whole and in ranges that straddle every boundary.
func TestWriteBehindPageBoundary(t *testing.T) {
	sizes := []int{100, ScratchPage - 100, 1, ScratchPage, 300, 3*ScratchPage + 7, ScratchPage - 300, 0, 5}
	media(t, func(t *testing.T, sc *Scratch) {
		for _, owned := range []bool{false, true} {
			run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
				f := s.Create(fmt.Sprintf("spill-%v", owned), MapSpill)
				var want []byte
				for i, n := range sizes {
					data := pattern(n, i)
					want = append(want, data...)
					if owned {
						s.AppendOwned(p, f, data, MapSpill, nil)
					} else {
						s.Append(p, f, data, MapSpill)
					}
					if got := readAt(t, p, s, f, 0, f.Size(), MapSpill); !bytes.Equal(got, want) {
						t.Fatalf("owned=%v: after append %d the file reads back %d bytes unlike the %d written", owned, i, len(got), len(want))
					}
				}
				for off := int64(0); off < f.Size(); off += ScratchPage / 3 {
					n := min(int64(ScratchPage), f.Size()-off)
					if got := readAt(t, p, s, f, off, n, MapSpill); !bytes.Equal(got, want[off:off+n]) {
						t.Fatalf("owned=%v: range [%d,%d) reads back wrong", owned, off, off+n)
					}
				}
				if got := s.ReadAll(p, f, 1000, MapSpill); !bytes.Equal(got, want) {
					t.Fatalf("owned=%v: segmented ReadAll reads back wrong", owned)
				}
				s.Delete(f)
			})
		}
	})
}

// faultScript writes and reads spill files with checksums on under
// transient I/O errors and bit flips, and returns everything the store
// counted and every read's verdict.
func faultScript(t *testing.T, sc *Scratch) (res struct {
	Counters          Counters
	Retries, Detected int64
	Verdicts          []bool
	Elapsed           time.Duration
}) {
	res.Elapsed = run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
		s.Checksums = true
		df := &DiskFaults{Seed: 3, IOErrorRate: 0.2, CorruptRate: 0.3}
		df.Classes[ReduceSpill] = true
		s.SetFaults(df)
		for i := range 12 {
			f := s.Create(fmt.Sprintf("bucket%d", i), ReduceSpill)
			for j := range 6 {
				s.Append(p, f, pattern(700*(i+j+1), j), ReduceSpill)
			}
			s.AppendOwned(p, f, pattern(3*ScratchPage, i), ReduceSpill, []int64{ScratchPage, 2 * ScratchPage})
			err := s.ReadAtChecked(p, f, f.Size()/3, f.Size()/3, ReduceSpill)
			res.Verdicts = append(res.Verdicts, err == nil)
			func() {
				defer func() { res.Verdicts = append(res.Verdicts, recover() == nil) }()
				s.ReadAll(p, f, 4000, ReduceSpill)
			}()
			func() {
				defer func() { res.Verdicts = append(res.Verdicts, recover() == nil) }()
				s.Take(f, nil, ReduceSpill)
			}()
			s.Delete(f)
			g := s.Create(fmt.Sprintf("run%d", i), ReduceSpill)
			s.Give(p, g, s.Stage(pattern(2*ScratchPage+i, i)), ReduceSpill)
			func() {
				defer func() { res.Verdicts = append(res.Verdicts, recover() == nil) }()
				s.Stream(p, g, 5000, ReduceSpill)
			}()
			s.Delete(g)
		}
		res.Counters, res.Retries, res.Detected = *s.Counters(), s.IORetries(), s.CorruptFramesDetected()
	})
	return res
}

// TestFaultsEqualOnBothMedia: checksum frames, injected bit flips and
// transient I/O errors land and are caught identically whether a spill
// lives in memory or on disk — the flip is written through to the disk
// copy, a staged run's in place — so every counter, verdict and charged
// instant is equal.
func TestFaultsEqualOnBothMedia(t *testing.T) {
	mem, disk := faultScript(t, nil), faultScript(t, testScratch(t))
	if mem.Detected == 0 || mem.Retries == 0 {
		t.Fatalf("test setup: %d corrupt frames detected, %d I/O retries", mem.Detected, mem.Retries)
	}
	if !reflect.DeepEqual(mem, disk) {
		t.Fatalf("media disagree:\nmemory %+v\ndisk   %+v", mem, disk)
	}
}

// TestViewsValidUntilDelete: a view a read lent keeps its bytes while
// the file grows past it and is read again, on both media.
func TestViewsValidUntilDelete(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			f := s.Create("spill", ReduceSpill)
			first := pattern(ScratchPage/2, 1)
			s.Append(p, f, first, ReduceSpill)
			view := s.ReadAll(p, f, 0, ReduceSpill)
			for i := range 4 {
				s.Append(p, f, pattern(ScratchPage, i), ReduceSpill)
				s.ReadAll(p, f, 0, ReduceSpill)
				readAt(t, p, s, f, 10, ScratchPage, ReduceSpill)
			}
			if !bytes.Equal(view, first) {
				t.Fatal("a lent view changed before Delete")
			}
			s.Delete(f)
		})
	})
}

// TestSpillFileHoldsAtMostOnePage: a disk spill file of N bytes, written
// in bucket-page-sized appends, keeps at most one write-behind page in
// the heap and allocates a small fraction of N.
func TestSpillFileHoldsAtMostOnePage(t *testing.T) {
	const n, piece = 4 << 20, 244
	sc := testScratch(t)
	run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
		f := s.Create("bucket", ReduceSpill)
		data := pattern(piece, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n / piece {
			s.Append(p, f, data, ReduceSpill)
		}
		runtime.ReadMemStats(&after)
		if cap(f.data) > ScratchPage {
			t.Fatalf("the file holds a %d-byte page", cap(f.data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > n/16 {
			t.Fatalf("writing %d bytes allocated %d", n, grew)
		}
		s.Delete(f)
	})
}

// TestScratchSharedAcrossStores: the stores of one wall-clock run write
// and read their spill files in one scratch file from many goroutines at
// once; each file reads back exactly its own bytes.
func TestScratchSharedAcrossStores(t *testing.T) {
	sc := testScratch(t)
	var wg sync.WaitGroup
	for node := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := NewWallStore(node, cost.Default(1), sc)
			p := substrate.NewWallProc(time.Now())
			for i := range 4 {
				f := s.Create(fmt.Sprintf("bucket%d", i), ReduceSpill)
				var want []byte
				for j := range 40 {
					data := pattern(1000+node*97+j, node*31+i)
					want = append(want, data...)
					s.Append(p, f, data, ReduceSpill)
				}
				if got := s.ReadAll(p, f, 0, ReduceSpill); !bytes.Equal(got, want) {
					t.Errorf("node %d file %d reads back other bytes", node, i)
				}
				s.Delete(f)
			}
		}()
	}
	wg.Wait()
}

// TestParkedBytesReadBack: bytes parked in a scratch file from several
// goroutines at once, beside a spill file writing its own extents, read
// back whole and in part as they were written.
func TestParkedBytesReadBack(t *testing.T) {
	sc := testScratch(t)
	const blobs = 8
	ats := make([]int64, blobs)
	var wg sync.WaitGroup
	for i := range blobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ats[i] = sc.park(nil, pattern(3*ScratchPage+i, i), nil).at
		}()
	}
	run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
		f := s.Create("spill", MapSpill)
		s.Append(p, f, pattern(2*ScratchPage, 99), MapSpill)
		if !bytes.Equal(s.ReadAll(p, f, 0, MapSpill), pattern(2*ScratchPage, 99)) {
			t.Error("the spill file beside the parked bytes reads back changed")
		}
		s.Delete(f)
	})
	wg.Wait()
	for i, at := range ats {
		want := pattern(3*ScratchPage+i, i)
		got := make([]byte, len(want))
		sc.readAt(got, at)
		part := make([]byte, 100)
		sc.readAt(part, at+int64(ScratchPage))
		if !bytes.Equal(got, want) || !bytes.Equal(part, want[ScratchPage:ScratchPage+100]) {
			t.Errorf("parked blob %d reads back changed", i)
		}
	}
}

// TestStreamChargesAndVerifiesAsReadAll: streaming a spill file charges
// the requests ReadAll makes, and with checksums on catches a flipped
// bit at the same request, on both media, for files staged whole and
// files appended piece by piece across the write-behind page.
func TestStreamChargesAndVerifiesAsReadAll(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		for _, damaged := range []bool{false, true} {
			run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
				s.Checksums = true
				df := &DiskFaults{Seed: 5, CorruptRate: 0.5}
				df.Classes[MapSpill] = damaged
				s.SetFaults(df)
				staged := s.Create("staged", MapSpill)
				s.Give(p, staged, s.Stage(pattern(5*ScratchPage/2, 1)), MapSpill)
				pieces := s.Create("pieces", MapSpill)
				for i := range 9 {
					s.Append(p, pieces, pattern(ScratchPage/3+i, i), MapSpill)
				}
				if damaged && s.faultSeq < 10 {
					t.Fatal("test setup: no corruption was rolled")
				}
				for _, f := range []*File{staged, pieces} {
					type outcome struct {
						Counters Counters
						Detected int64
						Panicked bool
					}
					try := func(read func()) (o outcome) {
						c, d := s.counters, s.corruptFrames
						defer func() {
							o = outcome{s.counters, s.corruptFrames - d, recover() != nil}
							for i := range o.Counters.ReadBytes {
								o.Counters.ReadBytes[i] -= c.ReadBytes[i]
								o.Counters.ReadReqs[i] -= c.ReadReqs[i]
								o.Counters.OverheadBytes[i] -= c.OverheadBytes[i]
							}
						}()
						read()
						return
					}
					all := try(func() { s.ReadAll(p, f, 3000, MapSpill) })
					var spill kvenc.Spill
					streamed := try(func() { spill = s.Stream(p, f, 3000, MapSpill) })
					if all != streamed {
						t.Fatalf("%s (damaged %v): ReadAll %+v, Stream %+v", f.name, damaged, all, streamed)
					}
					if !streamed.Panicked {
						want, got := s.ReadAll(p, f, 0, MapSpill), make([]byte, f.Size())
						for off := int64(0); off < f.Size(); off += 777 {
							spill.ReadAt(got[off:min(off+777, f.Size())], off)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: the stream reads back other bytes", f.name)
						}
					}
				}
				if s.corruptFrames == 0 && damaged {
					t.Fatal("test setup: no damaged frame was read")
				}
				s.Delete(staged)
				s.Delete(pieces)
			})
		}
	})
}

// TestStagedSpillsHoldNoHeap: on a store with a scratch file, of either
// substrate, a staged spill run keeps none of its bytes in the heap, and
// streaming it lends only its one window, of the read segment or the
// run if that is shorter.
func TestStagedSpillsHoldNoHeap(t *testing.T) {
	sc := testScratch(t)
	check := func(t *testing.T, p substrate.Proc, s *Store) {
		f := s.Create("run", MapSpill)
		s.Give(p, f, s.Stage(pattern(3*ScratchPage, 1)), MapSpill)
		if f.data != nil || f.lent != nil {
			t.Fatalf("a staged run holds a %d-byte page and %d lent buffers in the heap", cap(f.data), len(f.lent))
		}
		for i, seg := range []int64{ScratchPage, 4 * ScratchPage} {
			s.Stream(p, f, seg, MapSpill)
			w, want := f.lent[len(f.lent)-1], int(min(seg, f.Size()))
			if len(f.lent) != i+1 || cap(w) < want {
				t.Fatalf("segment %d of a %d-byte run: %d lent buffers, a window of %d bytes", seg, f.Size(), len(f.lent), cap(w))
			}
		}
		s.Delete(f)
	}
	t.Run("des", func(t *testing.T) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) { check(t, p, s) })
	})
	t.Run("wall", func(t *testing.T) {
		check(t, substrate.NewWallProc(time.Now()), NewWallStore(0, cost.Default(1), sc))
	})
}

// bytesOf returns f's bytes as they sit on its medium, unverified.
func bytesOf(f *File) []byte {
	b := make([]byte, f.size)
	f.readAt(b, 0)
	return b
}

// takenFiles fills files of sizes across the write-behind page, without
// faults, and takes each with a tail of extra bytes.
func takenFiles(p *sim.Proc, s *Store) (files []*File, taken []Taken) {
	for i, n := range []int{0, 300, ScratchPage - 5, ScratchPage + 7, 3*ScratchPage + 11} {
		f := s.Create(fmt.Sprintf("bucket%d", i), ReduceSpill)
		for off := 0; off < n; off += 1000 {
			s.Append(p, f, pattern(min(1000, n-off), i+off), ReduceSpill)
		}
		files, taken = append(files, f), append(taken, s.Take(f, pattern(40*i, 9), ReduceSpill))
	}
	return files, taken
}

// giveScript takes files, deletes them and rebuilds each in a fresh file
// under checksums, transient I/O errors and bit flips on ReduceSpill:
// by Give when give is set, else by Append of a copy of the taken bytes.
func giveScript(t *testing.T, sc *Scratch, give bool) (res struct {
	Counters          Counters
	Retries, Detected int64
	Frames            [][]frameSpan
	Bytes             [][]byte
	Verdicts          []bool
}) {
	run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
		s.Checksums = true
		files, taken := takenFiles(p, s)
		var copies [][]byte
		for i, f := range files {
			copies = append(copies, append(bytesOf(f), pattern(40*i, 9)...))
			s.Delete(f)
		}
		df := &DiskFaults{Seed: 7, IOErrorRate: 0.2, CorruptRate: 0.4}
		df.Classes[ReduceSpill] = true
		s.SetFaults(df)
		for round := range 3 {
			for i, tk := range taken {
				g := s.Create(fmt.Sprintf("restored%d.%d", i, round), ReduceSpill)
				if give {
					s.Give(p, g, tk, ReduceSpill)
				} else {
					s.Append(p, g, copies[i], ReduceSpill)
				}
				func() {
					defer func() { res.Verdicts = append(res.Verdicts, recover() == nil) }()
					s.ReadAll(p, g, 5000, ReduceSpill)
				}()
				res.Frames, res.Bytes = append(res.Frames, g.frames), append(res.Bytes, bytesOf(g))
				s.Delete(g)
			}
		}
		res.Counters, res.Retries, res.Detected = *s.Counters(), s.IORetries(), s.CorruptFramesDetected()
	})
	return res
}

// TestGiveEqualsAppend: giving a taken file to a fresh one charges,
// rolls and frames exactly what Append of a copy of its bytes does, and
// persists the same bytes, flips included, on both media.
func TestGiveEqualsAppend(t *testing.T) {
	var runs []any
	media(t, func(t *testing.T, sc *Scratch) {
		given, appended := giveScript(t, sc, true), giveScript(t, sc, false)
		if given.Detected == 0 || given.Retries == 0 {
			t.Fatalf("test setup: %d corrupt frames detected, %d I/O retries", given.Detected, given.Retries)
		}
		if !reflect.DeepEqual(given, appended) {
			t.Fatalf("Give and Append disagree:\ngive   %+v\nappend %+v", given, appended)
		}
		runs = append(runs, given)
	})
	if len(runs) == 2 && !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatal("media disagree")
	}
}

// TestTakenOutlivesItsFile: a taken file gives back the bytes it held
// when taken after the live file grew across pages, and after its
// Delete; a corruption hit on one give flips a private copy, so the
// shared extent and every other image referencing it stay intact.
func TestTakenOutlivesItsFile(t *testing.T) {
	media(t, func(t *testing.T, sc *Scratch) {
		run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
			s.Checksums = true
			files, taken := takenFiles(p, s)
			var want [][]byte
			for i, f := range files {
				want = append(want, append(bytesOf(f), pattern(40*i, 9)...))
				s.Append(p, f, pattern(2*ScratchPage, i), ReduceSpill)
			}
			again := files[3]
			older, newer := taken[3], s.Take(again, nil, ReduceSpill)
			check := func(when string, tk Taken, want []byte) {
				g := s.Create("check", ReduceSpill)
				s.Give(p, g, tk, ReduceSpill)
				if got := s.ReadAll(p, g, 0, ReduceSpill); !bytes.Equal(got, want) {
					t.Fatalf("%s: a %d-byte taken file reads back other bytes", when, len(want))
				}
				s.Delete(g)
			}
			for i := range files {
				check("after the file grew", taken[i], want[i])
			}
			wantNewer := bytesOf(again)
			for _, f := range files {
				s.Delete(f)
			}
			for i := range files {
				check("after its Delete", taken[i], want[i])
			}

			df := &DiskFaults{Seed: 1, CorruptRate: 1}
			df.Classes[ReduceSpill] = true
			s.SetFaults(df)
			for i, tk := range []Taken{older, newer} {
				g := s.Create(fmt.Sprintf("flipped%d", i), ReduceSpill)
				s.Give(p, g, tk, ReduceSpill)
				if err := s.ReadAtChecked(p, g, 0, g.Size(), ReduceSpill); err == nil {
					t.Fatal("test setup: the give was not corrupted")
				}
			}
			s.SetFaults(nil)
			check("after a flipped give", older, want[3])
			check("after a flipped give", newer, wantNewer)
		})
	})
}
