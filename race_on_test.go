//go:build race

package skandium

// raceEnabled skips allocation counts: under the race detector sync.Pool
// drops a share of what is put back, so pooled objects are re-allocated.
const raceEnabled = true
