//go:build !race

package experiments

// raceEnabled reports whether the race detector is active; the n=1024
// membership identity cells are skipped under it.
const raceEnabled = false
