package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/substrate"
)

// holderModel is FuzzHolders' model of a store: the bytes each live
// file and Taken holds, by script slot.
type holderModel struct {
	files  [4]*File
	want   [4][]byte
	taken  []Taken
	wantTk [][]byte
}

// live returns the bytes of the distinct extents the live files and
// Takens reference: what the scratch file must still hold.
func (m *holderModel) live() int64 {
	seen, n := map[*extent]bool{}, int64(0)
	count := func(exts []*extent) {
		for _, e := range exts {
			if !seen[e] {
				seen[e], n = true, n+e.n
			}
		}
	}
	for _, f := range m.files {
		if f != nil {
			count(f.exts)
		}
	}
	for i := range m.taken {
		count(m.taken[i].exts)
	}
	return n
}

// FuzzHolders runs a script of Append, Stage, Take, Give, Delete and
// Release on one store, on both media, against a model of what each
// file and Taken holds: after every step each reads back its model's
// bytes, and the scratch file holds (Held) exactly the extents some
// live file or Taken references. At the end, with everything deleted
// and released, it holds nothing.
func FuzzHolders(f *testing.F) {
	f.Add([]byte{0, 0, 200, 2, 0, 1, 4, 0, 0, 3, 0, 1, 5, 0, 0, 4, 1, 0})
	f.Add([]byte{1, 200, 0, 3, 0, 0, 0, 0, 90, 2, 0, 2, 4, 0, 0, 3, 1, 0, 0, 0, 250, 5, 0, 0})
	f.Add([]byte{0, 1, 30, 0, 1, 170, 2, 1, 0, 0, 1, 180, 2, 1, 1, 4, 1, 0, 3, 0, 2, 3, 1, 3, 5, 1, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		media(t, func(t *testing.T, sc *Scratch) {
			s, p := NewWallStore(0, cost.Default(1), sc), substrate.NewWallProc(time.Now())
			m, seq := &holderModel{}, 0
			for i := 0; i+2 < len(script) && i < 3*64; i += 3 {
				a, b := int(script[i+1]), int(script[i+2])
				seq++
				switch script[i] % 6 {
				case 0: // Append
					slot := a % 4
					if m.files[slot] == nil {
						m.files[slot], m.want[slot] = s.Create(fmt.Sprintf("f%d", seq), ReduceSpill), []byte{}
					}
					data := pattern(b*100, seq)
					s.Append(p, m.files[slot], data, ReduceSpill)
					m.want[slot] = append(m.want[slot], data...)
				case 1: // Stage
					data := pattern(a*100, seq)
					m.taken, m.wantTk = append(m.taken, s.Stage(data)), append(m.wantTk, data)
				case 2: // Take
					extra := pattern(b%3*50, seq)
					m.taken = append(m.taken, s.Take(m.files[a%4], extra, ReduceSpill))
					m.wantTk = append(m.wantTk, append(bytes.Clone(m.want[a%4]), extra...))
				case 3: // Give, to a fresh file in a slot
					if len(m.taken) == 0 {
						continue
					}
					slot, tk := b%4, a%len(m.taken)
					if m.files[slot] != nil {
						s.Delete(m.files[slot])
					}
					m.files[slot] = s.Create(fmt.Sprintf("f%d", seq), ReduceSpill)
					s.Give(p, m.files[slot], m.taken[tk], ReduceSpill)
					m.want[slot] = bytes.Clone(m.wantTk[tk])
				case 4: // Delete
					if f := m.files[a%4]; f != nil {
						s.Delete(f)
						m.files[a%4], m.want[a%4] = nil, nil
					}
				case 5: // Release
					if len(m.taken) > 0 {
						tk := a % len(m.taken)
						m.taken[tk].Release()
						m.taken, m.wantTk = append(m.taken[:tk], m.taken[tk+1:]...), append(m.wantTk[:tk], m.wantTk[tk+1:]...)
					}
				}
				check(t, sc, m, seq)
			}
			for i := range m.files {
				if m.files[i] != nil {
					s.Delete(m.files[i])
					m.files[i] = nil
				}
			}
			for i := range m.taken {
				m.taken[i].Release()
			}
			m.taken = nil
			check(t, sc, m, seq)
		})
	})
}

// check holds the store to the model after step seq.
func check(t *testing.T, sc *Scratch, m *holderModel, seq int) {
	t.Helper()
	for i, f := range m.files {
		if f != nil && !bytes.Equal(bytesOf(f), m.want[i]) {
			t.Fatalf("step %d: file %s reads back other bytes", seq, f.name)
		}
	}
	for i := range m.taken {
		got := make([]byte, m.taken[i].Len())
		m.taken[i].ReadAt(got, 0)
		if !bytes.Equal(got, m.wantTk[i]) {
			t.Fatalf("step %d: Taken %d reads back other bytes", seq, i)
		}
	}
	if sc != nil && sc.Held() != m.live() {
		t.Fatalf("step %d: the scratch file holds %d bytes, the live files and Takens %d", seq, sc.Held(), m.live())
	}
}

// TestHoldersAcrossGoroutines: stores on several goroutines take, give,
// release and delete on one scratch file at once, as a wall-clock run's
// attempts do, each restoring what it took after its file is gone; every
// file reads back its own bytes, and once all are done the file holds
// nothing.
func TestHoldersAcrossGoroutines(t *testing.T) {
	sc := testScratch(t)
	var wg sync.WaitGroup
	for node := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, p := NewWallStore(node, cost.Default(1), sc), substrate.NewWallProc(time.Now())
			s.Checksums = node%2 == 0
			for i := range 6 {
				f := s.Create(fmt.Sprintf("bucket%d", i), ReduceSpill)
				var want []byte
				for j := range 12 + i {
					data := pattern(3000+node*97+j, node*31+i)
					want = append(want, data...)
					s.Append(p, f, data, ReduceSpill)
				}
				tk, staged := s.Take(f, nil, ReduceSpill), s.Stage(want)
				s.Delete(f)
				for k, t0 := range []Taken{tk, staged} {
					g := s.Create(fmt.Sprintf("restored%d.%d", i, k), ReduceSpill)
					s.Give(p, g, t0, ReduceSpill)
					t0.Release()
					if got := s.ReadAll(p, g, 0, ReduceSpill); !bytes.Equal(got, want) {
						t.Errorf("node %d file %d reads back other bytes", node, i)
					}
					s.Delete(g)
				}
			}
		}()
	}
	wg.Wait()
	if sc.Held() != 0 {
		t.Fatalf("the scratch file holds %d bytes after every file and Taken is gone", sc.Held())
	}
}

// TestFailedPunchDoesNotPanic: an extent whose punch fails — here the
// scratch file is already closed — is let go of all the same, without a
// panic: a scratch panic outside an attempt's recover would take every
// tenant's jobs down with it.
func TestFailedPunchDoesNotPanic(t *testing.T) {
	sc := testScratch(t)
	tk := sc.Stage(pattern(3*ScratchPage, 1))
	sc.Close()
	tk.Release()
	if sc.Held() != 0 {
		t.Fatalf("%d bytes held after the last holder let go", sc.Held())
	}
}
