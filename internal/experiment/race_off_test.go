//go:build !race

package experiment

// raceEnabled reports whether the race detector is compiled in; throughput
// comparisons skip under -race because the detector's per-access cost
// depends on the engine's locking, not on its speed.
const raceEnabled = false
