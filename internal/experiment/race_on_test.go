//go:build race

package experiment

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
