package storage

import (
	"bytes"
	"errors"
	"os"
	"syscall"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// allocated returns the bytes the filesystem has allocated to sc's file.
func allocated(t *testing.T, sc *Scratch) int64 {
	t.Helper()
	var st syscall.Stat_t
	if err := syscall.Fstat(int(sc.f.Fd()), &st); err != nil {
		t.Fatal(err)
	}
	return st.Blocks * 512
}

// TestLastHolderFreesTheBlocks: a file deleted while a Taken holds its
// extents frees none of them; a file given the Taken reads its bytes
// back intact, also once the Taken is released, and a flipped give
// holds only its own copy besides. Only when the last holder lets go
// are the blocks punched out of the scratch file.
func TestLastHolderFreesTheBlocks(t *testing.T) {
	sc := testScratch(t)
	if err := punch(sc.f.Fd(), 0, scratchBlock); errors.Is(err, syscall.EOPNOTSUPP) {
		t.Skipf("the filesystem under %s cannot punch holes: %v", os.TempDir(), err)
	}
	run(t, cost.Default(1), sc, func(p *sim.Proc, s *Store) {
		s.Checksums = true
		f := s.Create("bucket", ReduceSpill)
		for i := range 12 {
			s.Append(p, f, pattern(5000, i), ReduceSpill)
		}
		want := bytesOf(f)
		tk := s.Take(f, nil, ReduceSpill)
		flushed := f.size - int64(len(f.data))
		s.Delete(f)
		if sc.Held() != flushed || allocated(t, sc) < flushed {
			t.Fatalf("a Taken of %d flushed bytes holds %d, %d allocated, after its file's Delete", flushed, sc.Held(), allocated(t, sc))
		}
		g := s.Create("restored", ReduceSpill)
		s.Give(p, g, tk, ReduceSpill)
		tk.Release()
		if got := s.ReadAll(p, g, 0, ReduceSpill); !bytes.Equal(got, want) {
			t.Fatal("the file given the Taken reads back other bytes")
		}
		s.Append(p, g, pattern(3*ScratchPage, 99), ReduceSpill) // extents behind the shared ones
		shared := sc.Held()

		df := &DiskFaults{Seed: 1, CorruptRate: 1}
		df.Classes[ReduceSpill] = true
		s.SetFaults(df)
		h := s.Create("flipped", ReduceSpill)
		tg := s.Take(g, nil, ReduceSpill)
		s.Give(p, h, tg, ReduceSpill)
		tg.Release()
		s.SetFaults(nil)
		flipped := h.size - int64(len(h.data))
		if sc.Held() != shared+flipped {
			t.Fatalf("a flipped give holds %d bytes beside %d shared, want its own %d", sc.Held()-shared, shared, flipped)
		}
		s.Delete(h)
		if sc.Held() != shared {
			t.Fatalf("the scratch file holds %d bytes after the flipped file's Delete, want %d", sc.Held(), shared)
		}
		s.Delete(g)
		if sc.Held() != 0 || allocated(t, sc) != 0 {
			t.Fatalf("after the last holder's Delete: %d bytes held, %d allocated", sc.Held(), allocated(t, sc))
		}
	})
}

// TestExtentsStartOnBlocks: extents are carved at block boundaries, so
// punching out every extent of many odd-sized ones leaves no block
// behind, while Size still counts the bytes written, unpadded.
func TestExtentsStartOnBlocks(t *testing.T) {
	sc := testScratch(t)
	if err := punch(sc.f.Fd(), 0, scratchBlock); errors.Is(err, syscall.EOPNOTSUPP) {
		t.Skipf("the filesystem under %s cannot punch holes: %v", os.TempDir(), err)
	}
	var taken []Taken
	var n int64
	for i := range 50 {
		data := pattern(16500+i, i)
		taken, n = append(taken, sc.Stage(data)), n+int64(len(data))
	}
	if sc.Size() != n || sc.Held() != n || allocated(t, sc) < n {
		t.Fatalf("%d bytes staged: size %d, held %d, allocated %d", n, sc.Size(), sc.Held(), allocated(t, sc))
	}
	for i := range taken {
		if taken[i].exts[0].at%scratchBlock != 0 {
			t.Fatalf("extent %d starts at %d", i, taken[i].exts[0].at)
		}
		if i%2 == 1 {
			taken[i].Release()
		}
	}
	var kept int64
	for i := 0; i < len(taken); i += 2 {
		kept += blocks(taken[i].n)
	}
	if got := allocated(t, sc); got != kept {
		t.Fatalf("half the extents released: %d bytes allocated, want the other half's %d", got, kept)
	}
	for i := 0; i < len(taken); i += 2 {
		taken[i].Release()
	}
	if sc.Held() != 0 || allocated(t, sc) != 0 || sc.Size() != n {
		t.Fatalf("all released: held %d, allocated %d, size %d", sc.Held(), allocated(t, sc), sc.Size())
	}
}
