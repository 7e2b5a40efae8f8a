//go:build race

package swdnn

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so counts of allocations
// behind a pool are exact only without it.
const raceEnabled = true
