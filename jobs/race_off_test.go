//go:build !race

package jobs_test

const raceEnabled = false
