package pushpull

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
