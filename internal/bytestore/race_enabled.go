//go:build race

package bytestore

// Under the race detector Put poisons every buffer it takes back, so a
// read through a view that outlived its owner's hand-back fails the
// goldens and sweeps instead of passing on stale bytes. The detector's
// instrumentation also allocates on paths that are allocation-free in
// normal builds, so the AllocsPerRun pins skip.
const raceEnabled = true
