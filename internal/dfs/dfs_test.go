package dfs

import (
	"fmt"
	"slices"
	"testing"
)

// Replicas returns the nodes holding chunk i, primary first.
func (p Placement) Replicas(chunk int) []int {
	out := make([]int, p.Replication)
	for r := 0; r < p.Replication; r++ {
		out[r] = (chunk + r) % p.Nodes
	}
	return out
}

type fakeInput struct{ chunks int }

func (f fakeInput) Name() string            { return "fake" }
func (f fakeInput) NumChunks() int          { return f.chunks }
func (f fakeInput) ChunkBytes(i int) []byte { return []byte(fmt.Sprintf("chunk%d", i)) }

func TestReplicasDistinctNodes(t *testing.T) {
	p := NewPlacement(10, 3)
	for c := 0; c < 50; c++ {
		reps := p.Replicas(c)
		if len(reps) != 3 {
			t.Fatalf("chunk %d: %d replicas", c, len(reps))
		}
		seen := map[int]bool{}
		for _, n := range reps {
			if n < 0 || n >= 10 || seen[n] {
				t.Fatalf("chunk %d: bad replica set %v", c, reps)
			}
			seen[n] = true
		}
		if reps[0] != p.Primary(c) {
			t.Fatalf("primary mismatch for %d", c)
		}
	}
}

func TestReplicationClamped(t *testing.T) {
	p := NewPlacement(2, 5)
	if p.Replication != 2 {
		t.Fatalf("replication %d, want clamp to 2", p.Replication)
	}
	if NewPlacement(4, 0).Replication != 1 {
		t.Fatal("zero replication must clamp to 1")
	}
}

func TestLocal(t *testing.T) {
	p := NewPlacement(5, 2)
	// chunk 3 → nodes 3, 4
	if got := p.Replicas(3); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("chunk 3 is local to %v, want nodes 3 and 4", got)
	}
}

func TestAssignmentBalanced(t *testing.T) {
	in := fakeInput{chunks: 100}
	a := NewAssignment(in, NewPlacement(10, 3))
	per := make([]int, 10)
	for c := 0; c < in.chunks; c++ {
		per[a.Node(c)]++
	}
	for n, chunks := range per {
		if chunks != 10 {
			t.Fatalf("node %d has %d chunks", n, chunks)
		}
	}
}

func TestAssignmentLocality(t *testing.T) {
	in := fakeInput{chunks: 40}
	p := NewPlacement(8, 3)
	a := NewAssignment(in, p)
	for c := 0; c < 40; c++ {
		if !slices.Contains(p.Replicas(c), a.Node(c)) {
			t.Fatalf("chunk %d assigned to non-local node %d", c, a.Node(c))
		}
	}
}

func TestAssignmentBounds(t *testing.T) {
	a := NewAssignment(fakeInput{chunks: 5}, NewPlacement(2, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Node(5)
}

func TestPlacementValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero nodes")
		}
	}()
	NewPlacement(0, 1)
}
