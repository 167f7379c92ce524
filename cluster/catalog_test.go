package cluster

import (
	"fmt"
	"testing"
)

// TestCatalogJobAffinitiesBounded: the affinity table keeps the newest
// maxJobs entries, and IDs that were dropped do not hold room in it.
func TestCatalogJobAffinitiesBounded(t *testing.T) {
	c := NewCatalog()
	c.maxJobs = 8
	for i := 0; i < 20; i++ {
		c.SetJob(fmt.Sprintf("j-%d", i), "w")
	}
	if c.JobsLen() != 8 {
		t.Fatalf("%d affinities tracked, want 8", c.JobsLen())
	}
	if _, ok := c.JobWorker("j-11"); ok {
		t.Error("j-11 still tracked: the oldest must go first")
	}
	if w, ok := c.JobWorker("j-12"); !ok || w != "w" {
		t.Error("j-12 not tracked: the newest 8 must stay")
	}
	// Set-then-drop traffic — what workers collecting their jobs turns
	// every affinity into — must not grow anything.
	for i := 20; i < 1000; i++ {
		id := fmt.Sprintf("j-%d", i)
		c.SetJob(id, "w")
		c.DropJob(id)
	}
	if c.JobsLen() != 0 || len(c.jobOrder) > 8 {
		t.Errorf("after set/drop churn: %d affinities, %d order entries; want 0 and at most 8", c.JobsLen(), len(c.jobOrder))
	}
}
