package kvenc

import (
	"bytes"
	"fmt"
	"testing"
)

// windowSizes are the window capacities every merge is repeated with
// over spills: smaller than any pair, smaller than most, and larger.
var windowSizes = []int{1, 7, 64}

// spillsOf presents the first n runs as spills read through a window of
// win bytes, and the distinct buffers each spill's reads filled, each by
// the address of its last byte.
func spillsOf(runs [][]byte, n, win int) ([]Spill, []map[*byte]bool) {
	spills, filled := make([]Spill, n), make([]map[*byte]bool, n)
	for i := range n {
		run, seen := runs[i], map[*byte]bool{}
		spills[i] = Spill{
			Size: int64(len(run)),
			ReadAt: func(dst []byte, off int64) {
				if len(dst) == 0 || off+int64(len(dst)) > int64(len(run)) {
					panic(fmt.Sprintf("read of %d bytes at %d past a %d-byte run", len(dst), off, len(run)))
				}
				seen[&dst[:cap(dst)][cap(dst)-1]] = true
				copy(dst, run[off:])
			},
			Win: make([]byte, 0, win),
		}
		filled[i] = seen
	}
	return spills, filled
}

// mergeWindowed repeats the merge of runs with all of them, then the
// first half, read through windows of every size, draining it through
// AppendTo and through Groups, and fails unless
// each gives want and wantErr and filled one buffer per intact spill
// where no pair outgrew its window (a damaged tail is read on to the end
// of its run).
func mergeWindowed(t *testing.T, runs [][]byte, want []byte, wantErr error) {
	t.Helper()
	longest := 0
	for _, r := range runs {
		for rest := r; ; {
			_, _, end, ok := scanPair(rest)
			if !ok {
				break
			}
			longest, rest = max(longest, end), rest[end:]
		}
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	for _, win := range append(windowSizes, total) {
		for _, n := range []int{len(runs), len(runs) / 2} {
			spills, filled := spillsOf(runs, n, win)
			got, err := Merge(spills, runs[n:]).AppendTo(nil)
			check := func(how string, got []byte, err error) {
				t.Helper()
				if !bytes.Equal(got, want) || err != wantErr {
					t.Fatalf("window %d, %d of %d runs spilled, %s: %d bytes (%v), resident merge %d (%v)",
						win, n, len(runs), how, len(got), err, len(want), wantErr)
				}
				for i, seen := range filled {
					if win >= longest && wantErr == nil && len(seen) > 1 {
						t.Fatalf("window %d, %s: spill %d read into %d buffers, want its one window", win, how, i, len(seen))
					}
				}
			}
			check("AppendTo", got, err)

			spills, filled = spillsOf(runs, n, win)
			g := NewGroups(Merge(spills, runs[n:]))
			var grouped []byte
			for key, ok := g.NextGroup(); ok; key, ok = g.NextGroup() {
				for v, ok := g.Next(); ok; v, ok = g.Next() {
					grouped = AppendPair(grouped, key, v)
				}
			}
			check("Groups", grouped, g.Err())
		}
	}
}

// TestWindowedMergeEdges: the shapes a window must get right, each
// against the resident merge — a window smaller than one pair, pairs
// that span windows, one key's group spanning many windows of one run
// (its key read over while the group is still open), and a truncated
// tail, which must give ErrCorrupt.
func TestWindowedMergeEdges(t *testing.T) {
	var hot, other []byte
	for i := range 300 {
		hot = AppendPair(hot, []byte("hotkey"), []byte(fmt.Sprintf("value-%03d", i)))
	}
	hot = AppendPair(hot, []byte("hotkey2"), []byte("after"))
	for _, k := range []string{"a", "hotkey", "hotkey", "z"} {
		other = AppendPair(other, []byte(k), []byte("other-"+k))
	}
	big := AppendPair(nil, bytes.Repeat([]byte("k"), 300), bytes.Repeat([]byte("v"), 2000))
	cases := map[string][][]byte{
		"hot-group":        {hot, other},
		"pair-over-window": {big, other, hot},
		"truncated-tail":   {other, append(bytes.Clone(hot), 0x05, 0x05, 'x')},
		"torn-length":      {append(bytes.Clone(other), 0x85)},
	}
	for name, runs := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := MergeStreamTo(nil, runs)
			if corrupt := name == "truncated-tail" || name == "torn-length"; corrupt != (err == ErrCorrupt) {
				t.Fatalf("resident merge: %v", err)
			}
			mergeWindowed(t, runs, want, err)
		})
	}
}

// TestWindowedPairOutlivesTheNextCall: a pair a merge over spills hands
// out keeps its bytes through the next Next, as Groups' read-ahead
// needs, although the spill's one window is read over in between: at
// every window size the caller compares the previous pair with a copy
// taken when it was handed out.
func TestWindowedPairOutlivesTheNextCall(t *testing.T) {
	var runs [][]byte
	for r := range 3 {
		var run []byte
		for i := range 200 {
			run = AppendPair(run, []byte(fmt.Sprintf("key%04d", 3*i+r%2)), bytes.Repeat([]byte{byte('a' + r)}, 1+i%9))
		}
		runs = append(runs, run)
	}
	for _, win := range windowSizes {
		spills, _ := spillsOf(runs, 2, win)
		m := Merge(spills, runs[2:])
		var prevK, prevV, wantK, wantV []byte
		pairs := 0
		for k, v, ok := m.Next(); ok; k, v, ok = m.Next() {
			if !bytes.Equal(prevK, wantK) || !bytes.Equal(prevV, wantV) {
				t.Fatalf("window %d, pair %d: the previous pair reads %q=%q after the next Next, was %q=%q", win, pairs, prevK, prevV, wantK, wantV)
			}
			prevK, prevV, wantK, wantV = k, v, bytes.Clone(k), bytes.Clone(v)
			pairs++
		}
		if m.Err() != nil || pairs != 600 {
			t.Fatalf("window %d: %d pairs merged (%v), want 600", win, pairs, m.Err())
		}
	}
}
