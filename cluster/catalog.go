package cluster

import (
	"sort"
	"sync"
)

// Placement is one catalog entry: where a named graph lives and what the
// router knows about it. Replicas holds the workers that acknowledged
// the upload, primary first (rendezvous order); Epoch is the router-wide
// monotone mutation counter stamped on every replicated PUT/DELETE, the
// fence the workers' EpochHeader guard checks.
type Placement struct {
	Name      string   `json:"name"`
	ContentID string   `json:"id"`
	N         int      `json:"n"`
	M         int64    `json:"m"`
	Kind      string   `json:"kind"`
	Replicas  []string `json:"replicas"`
	Epoch     uint64   `json:"epoch"`
}

// Catalog is the router-side placement table: graph name → Placement,
// plus the epoch counter. It is the router's authoritative view — a
// graph the catalog does not list 404s at the router without touching a
// worker, and routing order is the recorded replica list.
type Catalog struct {
	mu    sync.RWMutex
	m     map[string]Placement
	epoch uint64
	// jobs is the async-tier affinity table: job (or batch) ID → the
	// worker that accepted the submission. Job state lives on exactly one
	// worker — there is no replication of job records — so status/result
	// polls must pin to it; failover would invent a 404 for a live job.
	// Workers collect their terminal jobs, so an affinity outlives its
	// use: one is dropped when its worker says the job is gone, and
	// jobOrder — every ID in the order it was set — lets the oldest be
	// dropped once more than maxJobs are tracked.
	jobs     map[string]string
	jobOrder []string
	maxJobs  int
}

// MaxJobAffinities bounds the job/batch affinities a Catalog tracks, far
// above what a fleet of workers at their default retention still holds.
const MaxJobAffinities = 1 << 16

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: map[string]Placement{}, jobs: map[string]string{}, maxJobs: MaxJobAffinities}
}

// NextEpoch allocates the next mutation epoch (starting at 1).
func (c *Catalog) NextEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch++
	return c.epoch
}

// Get returns the placement recorded for name.
func (c *Catalog) Get(name string) (Placement, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.m[name]
	return p, ok
}

// Set records (or replaces) a placement.
func (c *Catalog) Set(p Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[p.Name] = p
}

// Delete removes name's placement, returning what was recorded.
func (c *Catalog) Delete(name string) (Placement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.m[name]
	delete(c.m, name)
	return p, ok
}

// List snapshots every placement, sorted by name.
func (c *Catalog) List() []Placement {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Placement, 0, len(c.m))
	for _, p := range c.m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetJob records which worker accepted a job (or batch) submission, the
// affinity every later status/result/cancel poll for that ID pins to.
func (c *Catalog) SetJob(id, worker string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, tracked := c.jobs[id]; !tracked {
		c.jobOrder = append(c.jobOrder, id)
	}
	c.jobs[id] = worker
	// jobOrder also lists IDs DropJob has since removed; bounding it
	// bounds the map, and deleting a dropped ID again is harmless.
	for len(c.jobOrder) > c.maxJobs {
		delete(c.jobs, c.jobOrder[0])
		c.jobOrder = c.jobOrder[1:]
	}
}

// DropJob forgets a job's affinity: its worker has answered that the job
// is gone.
func (c *Catalog) DropJob(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, id)
}

// JobWorker looks up the worker holding a submitted job or batch.
func (c *Catalog) JobWorker(id string) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.jobs[id]
	return w, ok
}

// JobsLen counts tracked job/batch affinities.
func (c *Catalog) JobsLen() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.jobs)
}

// Len counts recorded placements.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
