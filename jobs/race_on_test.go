//go:build race

package jobs_test

// raceEnabled: the race detector makes sync.Pool drop a random share of
// what it is given, so exact allocation counts are not reproducible.
const raceEnabled = true
