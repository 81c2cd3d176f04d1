//go:build race

package realexec_test

// The race detector's instrumentation slows every task several times
// over and moves the heap's timing, so the heap-peak test skips.
const raceEnabled = true
