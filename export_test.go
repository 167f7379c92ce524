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
