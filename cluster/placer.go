// Package cluster is the distributed serving tier over pushpull/serve:
// a router process that speaks the same HTTP API as a worker but fans
// requests out over a fleet of `pushpull serve` base URLs.
//
// The router is where load is spread over capacity, the same way the
// paper's §6 lifts the push/pull dichotomy from shared memory to a
// cluster: placement is deterministic content-identity hashing, made
// rendezvous (highest-random-weight) so losing a worker only remaps the
// graphs that lived on it; uploads replicate to R workers; runs route to
// the primary replica with retry, exponential backoff and failover to
// secondaries; and mutations fan out with a monotone epoch so no replica
// can serve a stale graph.
package cluster

import (
	"hash/fnv"
	"io"
	"sort"
)

// Placer decides which workers own a graph: rendezvous (HRW) hashing
// over placementHash. Every (key, worker) pair gets a score and a key's
// replicas are the R highest-scoring workers. Unlike modulo placement,
// rendezvous placement is stable under membership change: removing a
// worker only remaps the keys that ranked it, and every other key's
// worker order is untouched — exactly the property a fleet with failures
// needs.
type Placer struct {
	replicas int
}

// NewPlacer returns a Placer targeting r replicas per graph (min 1).
func NewPlacer(r int) *Placer {
	if r < 1 {
		r = 1
	}
	return &Placer{replicas: r}
}

// Replicas returns the configured replication factor.
func (p *Placer) Replicas() int { return p.replicas }

// Rank orders workers by descending rendezvous score for key, breaking
// score ties by worker name so the order is total and deterministic.
func (p *Placer) Rank(key string, workers []string) []string {
	type scored struct {
		worker string
		score  uint64
	}
	ranked := make([]scored, len(workers))
	for i, w := range workers {
		ranked[i] = scored{w, placementHash(key + "\x00" + w)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].worker < ranked[j].worker
	})
	out := make([]string, len(ranked))
	for i, s := range ranked {
		out[i] = s.worker
	}
	return out
}

// Place returns key's replica set: the top-R workers by rendezvous rank,
// primary first. Fewer than R workers place on all of them.
func (p *Placer) Place(key string, workers []string) []string {
	ranked := p.Rank(key, workers)
	if len(ranked) > p.replicas {
		ranked = ranked[:p.replicas]
	}
	return ranked
}

// placementHash is the deterministic digest (FNV-1a, 64-bit) behind every
// rendezvous score, so placement is stable across restarts and builds.
func placementHash(key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return h.Sum64()
}
