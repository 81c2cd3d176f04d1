//go:build !race

package realexec_test

const raceEnabled = false
