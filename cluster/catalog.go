package cluster

import (
	"sort"
	"sync"
	"time"
)

// Placement is one catalog entry: where a named graph lives and what the
// router knows about it. Replicas holds the workers that acknowledged
// the upload, primary first (rendezvous order); Epoch is the router-wide
// monotone mutation epoch (NextEpoch) stamped on every replicated
// PUT/DELETE, the fence the workers' EpochHeader guard checks.
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
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{m: map[string]Placement{}}
}

// NextEpoch allocates the next mutation epoch: the later of the last
// one plus one and the clock in Unix microseconds. Drawn from the clock,
// a fresh router's first epoch is above every epoch an earlier router
// over the same workers stamped (unless its clock runs behind that
// router's), so its re-upload or delete of a name that router placed
// passes the workers' fence. Microseconds stay below 2^53 for
// centuries, so the JSON epoch is exact in a double.
func (c *Catalog) NextEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = max(c.epoch+1, uint64(time.Now().UnixMicro()))
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

// Len counts recorded placements.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
