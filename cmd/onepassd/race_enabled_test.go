//go:build race

package main

// Under the race detector the daemon's resident set carries the
// detector's shadow memory, so the RSS test skips.
const raceEnabled = true
