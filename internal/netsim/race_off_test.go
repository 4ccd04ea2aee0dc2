//go:build !race

package netsim

// raceEnabled reports whether the race detector is active; allocation-count
// assertions are skipped under it because its instrumentation allocates.
const raceEnabled = false
