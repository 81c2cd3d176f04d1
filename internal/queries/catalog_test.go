package queries

import (
	"testing"

	"repro/internal/cost"
)

func TestResolve(t *testing.T) {
	m := cost.Default(1.0 / 4096)
	z := Sizing{StateBytes: 512, Users: 10_000, DataBytes: 64e9, ChunkBytes: 64e6, Seed: 42}

	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			p, err := Resolve(name, z, m)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.NewQuery().Name(); got != name {
				t.Errorf("factory built query %q, want %q", got, name)
			}
			if p.Hints.Km <= 0 {
				t.Errorf("Hints.Km = %v, want > 0", p.Hints.Km)
			}
			if p.Hints.DistinctKeys <= 0 {
				t.Errorf("Hints.DistinctKeys = %v, want > 0", p.Hints.DistinctKeys)
			}
			if want := 24 * float64(p.Hints.DistinctKeys) / z.DataBytes; p.Hints.Kr != want {
				t.Errorf("Hints.Kr = %v, want the 24·K/D estimate %v", p.Hints.Kr, want)
			}
			if p.Input == nil || p.Input.NumChunks() == 0 {
				t.Error("plan carries no input")
			}
		})
	}

	// The factory must build independent instances: the real backend
	// hands one to each task, so shared scratch state would race.
	p, err := Resolve("sessionization", z, m)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := p.NewQuery(), p.NewQuery(); a == b {
		t.Error("NewQuery returned the same instance twice")
	}

	if _, err := Resolve("wordcount", z, m); err == nil {
		t.Error("unknown query accepted")
	}
}

// TestResolveBoundsTheUserPool: a click record's user id has seven
// digits, so 10^7 users is the last pool whose records keep their fixed
// width; one more used to widen the record silently. Resolving builds
// no sampler (that waits for the first chunk), so the accepted boundary
// costs nothing here.
func TestResolveBoundsTheUserPool(t *testing.T) {
	m := cost.Default(1.0 / 4096)
	for _, tc := range []struct {
		users int
		ok    bool
	}{{0, false}, {1, true}, {10_000_000, true}, {10_000_001, false}, {1 << 40, false}} {
		for _, name := range []string{"clickcount", "trigram"} {
			_, err := Resolve(name, Sizing{Users: tc.users, DataBytes: 64e9, ChunkBytes: 64e6, Seed: 42}, m)
			if (err == nil) != tc.ok {
				t.Errorf("%s over %d users: err = %v, want ok = %v", name, tc.users, err, tc.ok)
			}
		}
	}
}
