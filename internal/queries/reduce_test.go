package queries

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
)

// reduceInput is a value list Reduce of the named catalogue query
// accepts: click records for sessionization, decimal counts elsewhere.
func reduceInput(name string, salt int) []string {
	var vs []string
	for i := 0; i < 40; i++ {
		if name == "sessionization" {
			// Disordered timestamps, several sessions.
			vs = append(vs, string(click(int64((i*7+salt)%40)*2*minute, "u0000001", fmt.Sprintf("/p%d", i))))
		} else {
			vs = append(vs, fmt.Sprint(1+(i+salt)%9))
		}
	}
	return vs
}

// TestReduceIsReceiverPure: the sort-merge reducers run Reduce on
// compute-pool goroutines, all on the one Query instance a simulated
// job shares. Eight goroutines reduce their own groups through one
// instance of every catalogue query and must each get what a lone
// caller gets — under -race, a write to the receiver fails the test.
func TestReduceIsReceiverPure(t *testing.T) {
	z := Sizing{StateBytes: 512, Users: 1000, DataBytes: 1e9, ChunkBytes: 64e6, Seed: 1}
	for _, name := range Names {
		p, err := Resolve(name, z, cost.Default(1.0/4096))
		if err != nil {
			t.Fatal(err)
		}
		q := p.NewQuery()
		var want [8]sink
		for g := range want {
			q.Reduce([]byte("key"), values(reduceInput(name, g)...), &want[g])
		}
		var wg sync.WaitGroup
		for g := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					var got sink
					q.Reduce([]byte("key"), values(reduceInput(name, g)...), &got)
					if !reflect.DeepEqual(got.got, want[g].got) {
						t.Errorf("%s: goroutine %d reduced to %d outputs that differ from a lone caller's %d", name, g, len(got.got), len(want[g].got))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// rewind replays one value list.
type rewind struct {
	vs [][]byte
	i  int
}

func (r *rewind) Next() ([]byte, bool) {
	if r.i == len(r.vs) {
		return nil, false
	}
	r.i++
	return r.vs[r.i-1], true
}

type countOutputs struct{ n int }

func (c *countOutputs) Emit(_, _ []byte) { c.n++ }

// TestSessionizationReduceAllocs: with its scratch borrowed from a free
// list instead of kept on the receiver, a warm Reduce of one group
// allocates nothing.
func TestSessionizationReduceAllocs(t *testing.T) {
	q, vals, out := newSess(), &rewind{}, &countOutputs{}
	for _, v := range reduceInput("sessionization", 0) {
		vals.vs = append(vals.vs, []byte(v))
	}
	key := []byte("u0000001")
	q.Reduce(key, vals, out) // grow the scratch
	if n := testing.AllocsPerRun(100, func() {
		vals.i = 0
		q.Reduce(key, vals, out)
	}); n != 0 {
		t.Errorf("a warm Reduce allocates %.0f objects per group", n)
	}
	if out.n != 102*len(vals.vs) {
		t.Fatalf("%d outputs over 102 groups of %d clicks", out.n, len(vals.vs))
	}
}
