package frequent

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestSummaryMatchesOracle drives the table-backed summary and the
// map-based oracle with random skewed streams at small s, keeping each
// key's state the same way in both — set on insert, grown past its
// slot on hits, then rewritten in place — and scavenging zero-count
// keys between tuples. Every outcome, evicted pair, effective count,
// coverage, scavenged pair and Save must be equal, and a summary
// rebuilt by Load from its Save must carry on making the same
// decisions.
func TestSummaryMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, keys := 1+rng.Intn(8), 2+rng.Intn(60)
		z := rand.NewZipf(rng, 1.1+rng.Float64(), 1, uint64(keys-1))
		su, or := NewSummary(s), newMapSummary(s)
		fail := func(step int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (s=%d), step %d: "+format, append([]any{seed, s, step}, args...)...)
		}
		for step := 0; step < 3000; step++ {
			key := fmt.Appendf(nil, "k%d", z.Uint64())
			e, ev, out := or.Offer(key)
			slot, evKey, evState, got := su.Offer(key)
			if got != out {
				fail(step, "outcome %v, oracle %v", got, out)
			}
			if (ev == nil) != (evKey == nil) || ev != nil && (!bytes.Equal(ev.Key, evKey) || !bytes.Equal(ev.State, evState)) {
				fail(step, "evicted %q=%q, oracle %v", evKey, evState, ev)
			}
			switch out {
			case Inserted:
				e.SetState(fmt.Appendf(nil, "%d", step))
				su.SetState(slot, e.State)
			case Hit:
				if len(e.State) < 12 {
					e.SetState(append(e.State, byte(step)))
					su.SetState(slot, append(su.State(slot), byte(step)))
				} else {
					e.State[step%12] = byte(step)
					su.State(slot)[step%12] = byte(step)
				}
			}
			if e != nil && (su.Count(slot) != e.c-or.debt || su.Coverage(slot) != or.Coverage(e) || !bytes.Equal(su.State(slot), e.State)) {
				fail(step, "key %q: count %d coverage %v state %q, oracle %d %v %q",
					key, su.Count(slot), su.Coverage(slot), su.State(slot), e.c-or.debt, or.Coverage(e), e.State)
			}
			if step%7 == 0 {
				var want [][]byte
				for _, e := range or.Entries() {
					if e.c-or.debt <= 0 && e.State[len(e.State)-1]%2 == 0 {
						or.Remove(e.Key)
						want = append(want, e.Key, e.State)
					}
				}
				var gotPairs [][]byte
				su.Range(func(key, state []byte, slot Slot) bool {
					if su.Count(slot) <= 0 && state[len(state)-1]%2 == 0 {
						k, st := su.Remove(slot)
						gotPairs = append(gotPairs, k, st)
					}
					return true
				})
				if fmt.Sprintf("%q", gotPairs) != fmt.Sprintf("%q", want) {
					fail(step, "scavenged %q, oracle %q", gotPairs, want)
				}
			}
			if step%250 == 249 {
				entries, debt, seq, m := su.Save(nil)
				wantEntries, wantDebt, wantSeq, wantM := or.Save()
				if got, want := saved(entries, debt, seq, m), saved(wantEntries, wantDebt, wantSeq, wantM); got != want {
					fail(step, "saved %s, oracle %s", got, want)
				}
				su = Load(s, entries, debt, seq, m)
			}
		}
	}
}

// TestNewSummaryPanicsOnZeroSlots: a summary without a slot monitors
// nothing and would spill every tuple as an overflow.
func TestNewSummaryPanicsOnZeroSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSummary(0)
}

func saved(entries []Saved, debt, seq, m int64) string {
	var b bytes.Buffer
	for _, sv := range entries {
		fmt.Fprintf(&b, "%q=%q c%d t%d seq%d; ", sv.Key, sv.State, sv.C, sv.T, sv.Seq)
	}
	fmt.Fprintf(&b, "debt %d seq %d m %d", debt, seq, m)
	return b.String()
}
