package frequent_test

import (
	"fmt"

	"repro/internal/frequent"
)

// Monitor a stream with two slots: the hot key survives the cold noise
// and its state accumulates in memory (the DINC-hash in-memory path).
func ExampleSummary() {
	su := frequent.NewSummary(2)
	stream := []string{"hot", "a", "hot", "b", "hot", "c", "hot", "d", "hot"}
	spilled := 0
	for _, key := range stream {
		_, _, _, outcome := su.Offer([]byte(key))
		if outcome == frequent.Overflow {
			spilled++ // the tuple would go to its disk bucket
		}
	}
	su.Range(func(key, _ []byte, slot frequent.Slot) bool {
		if string(key) == "hot" {
			fmt.Printf("hot monitored with count %d, %d tuples spilled\n", su.Count(slot), spilled)
			fmt.Printf("coverage γ ≥ %.2f\n", su.Coverage(slot))
		}
		return true
	})
	// Output:
	// hot monitored with count 3, 2 tuples spilled
	// coverage γ ≥ 0.62
}
