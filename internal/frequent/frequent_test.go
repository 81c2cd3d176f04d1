package frequent

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestHitIncrementsCounters(t *testing.T) {
	su := New(4)
	e1, _, out := su.Offer([]byte("a"))
	if out != Inserted || e1 == nil {
		t.Fatalf("first offer: %v", out)
	}
	e2, _, out := su.Offer([]byte("a"))
	if out != Hit || e2 != e1 {
		t.Fatalf("second offer: %v", out)
	}
	if e1.Count(su) != 2 || e1.t != 2 {
		t.Fatalf("c=%d t=%d", e1.Count(su), e1.t)
	}
}

func TestOverflowDecrementsAll(t *testing.T) {
	su := New(2)
	su.Offer([]byte("a"))
	su.Offer([]byte("a"))
	su.Offer([]byte("b"))
	// Full, all counts > 0: new key overflows.
	e, ev, out := su.Offer([]byte("c"))
	if out != Overflow || e != nil || ev != nil {
		t.Fatalf("expected overflow, got %v", out)
	}
	if su.Lookup([]byte("a")).Count(su) != 1 || su.Lookup([]byte("b")).Count(su) != 0 {
		t.Fatal("decrement-all wrong")
	}
}

func TestEvictionOfZeroCountKey(t *testing.T) {
	su := New(2)
	su.Offer([]byte("a"))
	su.Offer([]byte("a"))
	su.Offer([]byte("b"))
	su.Offer([]byte("c")) // overflow, b drops to 0
	e, ev, out := su.Offer([]byte("d"))
	if out != Inserted || e == nil {
		t.Fatalf("expected insert with eviction, got %v", out)
	}
	if ev == nil || string(ev.Key) != "b" {
		t.Fatalf("evicted %v, want b", ev)
	}
	if su.Lookup([]byte("b")) != nil || su.Lookup([]byte("d")) == nil {
		t.Fatal("slot not transferred")
	}
}

func TestEvictionTieBreaksOldest(t *testing.T) {
	su := New(3)
	su.Offer([]byte("x"))
	su.Offer([]byte("y"))
	su.Offer([]byte("z"))
	su.Offer([]byte("q")) // overflow: all drop to effective 0
	_, ev, out := su.Offer([]byte("w"))
	if out != Inserted || ev == nil || string(ev.Key) != "x" {
		t.Fatalf("expected oldest (x) evicted, got %v", ev)
	}
}

func TestRemoveForCustomEviction(t *testing.T) {
	su := New(2)
	su.Offer([]byte("a"))
	e := su.Remove([]byte("a"))
	if e == nil || string(e.Key) != "a" || su.Len() != 0 {
		t.Fatal("remove failed")
	}
	if su.Remove([]byte("a")) != nil {
		t.Fatal("double remove returned entry")
	}
	// Freed slot must be reusable.
	_, _, out := su.Offer([]byte("b"))
	if out != Inserted {
		t.Fatalf("slot not reusable: %v", out)
	}
}

func TestEntriesOrderedByAge(t *testing.T) {
	su := New(8)
	for _, k := range []string{"e", "a", "c", "b"} {
		su.Offer([]byte(k))
	}
	var got []string
	for _, e := range su.Entries() {
		got = append(got, string(e.Key))
	}
	if fmt.Sprint(got) != "[e a c b]" {
		t.Fatalf("order %v", got)
	}
}

func TestStateSurvivesMonitoring(t *testing.T) {
	su := New(2)
	e, _, _ := su.Offer([]byte("k"))
	e.SetState([]byte("state-1"))
	e2, _, _ := su.Offer([]byte("k"))
	if string(e2.State) != "state-1" {
		t.Fatalf("state lost: %q", e2.State)
	}
}

// TestMisraGriesGuarantee verifies the classical frequency estimate
// bound that the paper's M′ analysis relies on: for every key,
// f_i − M/(s+1) ≤ ĉ_i ≤ f_i (with ĉ_i = 0 for unmonitored keys).
func TestMisraGriesGuarantee(t *testing.T) {
	for _, cfg := range []struct {
		s, keys, n int
		zipf       float64
	}{
		{s: 10, keys: 200, n: 20000, zipf: 1.3},
		{s: 25, keys: 1000, n: 50000, zipf: 1.1},
		{s: 5, keys: 50, n: 5000, zipf: 2.0},
	} {
		su := New(cfg.s)
		rng := rand.New(rand.NewSource(7))
		z := rand.NewZipf(rng, cfg.zipf, 1, uint64(cfg.keys-1))
		truth := map[string]int64{}
		for i := 0; i < cfg.n; i++ {
			k := []byte(fmt.Sprintf("key%04d", z.Uint64()))
			truth[string(k)]++
			su.Offer(k)
		}
		m := su.M()
		bound := float64(m) / float64(cfg.s+1)
		for k, f := range truth {
			var est int64
			if e := su.Lookup([]byte(k)); e != nil {
				est = e.Count(su)
			}
			if est > f {
				t.Fatalf("s=%d key %s: estimate %d > true %d", cfg.s, k, est, f)
			}
			if float64(f)-float64(est) > bound+1e-9 {
				t.Fatalf("s=%d key %s: estimate %d below f−M/(s+1)=%f", cfg.s, k, est, float64(f)-bound)
			}
		}
	}
}

// TestMPrimeBound verifies the paper's in-memory combine guarantee:
// at least M′ = Σ_i max(0, f_i − M/(s+1)) combines happen in memory.
// We count actual combines as Σ over Offer outcomes Hit/Inserted.
func TestMPrimeBound(t *testing.T) {
	const s, keys, n = 8, 300, 30000
	su := New(s)
	rng := rand.New(rand.NewSource(11))
	z := rand.NewZipf(rng, 1.4, 1, keys-1)
	truth := map[string]int64{}
	var combines int64
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%04d", z.Uint64()))
		truth[string(k)]++
		if _, _, out := su.Offer(k); out != Overflow {
			combines++
		}
	}
	var mPrime float64
	bound := float64(su.M()) / float64(s+1)
	for _, f := range truth {
		if ex := float64(f) - bound; ex > 0 {
			mPrime += ex
		}
	}
	if float64(combines) < mPrime {
		t.Fatalf("combines %d < M′ %.0f", combines, mPrime)
	}
}

// TestCoverageUnderestimate verifies γ_i ≤ coverage(k_i) = t/f_i for
// monitored keys (§4.3).
func TestCoverageUnderestimate(t *testing.T) {
	const s, keys, n = 6, 100, 20000
	su := New(s)
	rng := rand.New(rand.NewSource(13))
	z := rand.NewZipf(rng, 1.5, 1, keys-1)
	truth := map[string]int64{}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%03d", z.Uint64()))
		truth[string(k)]++
		su.Offer(k)
	}
	for _, e := range su.Entries() {
		gamma := su.Coverage(e)
		trueCov := float64(e.t) / float64(truth[string(e.Key)])
		if gamma > trueCov+1e-9 {
			t.Fatalf("key %s: γ=%.4f > true coverage %.4f", e.Key, gamma, trueCov)
		}
		if gamma <= 0 || gamma > 1 {
			t.Fatalf("γ out of range: %f", gamma)
		}
	}
}

// TestHotKeysStayMonitored: with heavy skew the top keys must be
// monitored at the end — the property DINC-hash's I/O savings rest on.
func TestHotKeysStayMonitored(t *testing.T) {
	const s = 4
	su := New(s)
	rng := rand.New(rand.NewSource(17))
	// Two overwhelmingly hot keys inside a sea of cold ones.
	for i := 0; i < 50000; i++ {
		var k string
		switch {
		case rng.Intn(100) < 40:
			k = "hot-A"
		case rng.Intn(100) < 40:
			k = "hot-B"
		default:
			k = fmt.Sprintf("cold-%06d", rng.Intn(30000))
		}
		su.Offer([]byte(k))
	}
	if su.Lookup([]byte("hot-A")) == nil || su.Lookup([]byte("hot-B")) == nil {
		t.Fatal("hot keys not monitored")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		su := New(5)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 5000; i++ {
			su.Offer([]byte(fmt.Sprintf("k%03d", rng.Intn(60))))
		}
		out := ""
		for _, e := range su.Entries() {
			out += fmt.Sprintf("%s:%d:%d;", e.Key, e.Count(su), e.t)
		}
		return out
	}
	a := run()
	for i := 0; i < 3; i++ {
		if b := run(); b != a {
			t.Fatalf("non-deterministic:\n%s\n%s", a, b)
		}
	}
}

func TestNewPanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func BenchmarkOfferZipf(b *testing.B) {
	su := NewSummary(1000)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<20)
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", z.Uint64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		su.Offer(keys[i&(1<<16-1)])
	}
}
