//go:build !race

package skandium

// raceEnabled skips allocation counts under the race detector.
const raceEnabled = false
