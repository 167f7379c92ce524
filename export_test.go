package pushpull

import "pushpull/internal/graph"

// RecountCache walks the live result-cache entries and returns what their
// charges add up to — payload bytes plus memoized-encoding bytes, and the
// encoding part alone — for tests to hold against the running totals
// Stats reports.
func (e *Engine) RecountCache() (bytes, encBytes int64) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	for el := e.cache.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		bytes += ent.rep.payloadBytes()
		if enc := ent.rep.memo.enc.Load(); enc != nil {
			bytes += int64(len(enc.Bytes))
			encBytes += int64(len(enc.Bytes))
		}
	}
	return bytes, encBytes
}

// FlightWaiters returns how many followers have joined in-progress
// single-flight runs: a follower counts from the moment it is committed to
// the leader's outcome, so a test can order "parked" before "leader
// canceled" without sleeping.
func (e *Engine) FlightWaiters() int {
	e.sfMu.Lock()
	defer e.sfMu.Unlock()
	n := 0
	for _, f := range e.inflight {
		n += f.waiters
	}
	return n
}

// HoldPABuild starts w's PA(parts) build on a goroutine of its own and
// holds it inside the build, with the key's table entry claimed, until
// release is closed. It returns once the build is held; the channel it
// returns then yields the split that build memoized.
func (w *Workload) HoldPABuild(parts int, release <-chan struct{}) <-chan *PAGraph {
	held := make(chan struct{})
	built := make(chan *PAGraph, 1)
	go func() {
		built <- memo(w, viewKey{kind: viewPA, parts: parts}, func() *PAGraph {
			close(held)
			<-release
			return graph.BuildPA(w.g, graph.NewPartition(w.g.N(), parts))
		})
	}()
	<-held
	return built
}

// FNVWord folds one word into an FNV-1a digest the way content IDs do,
// from the offset basis FNVOffset.
var FNVWord, FNVOffset = fnvWord, uint64(fnvOffset)
