package counters

// Probe receives the memory-access and control-flow events of a profiled
// algorithm variant. Every profiled push/pull implementation reports its
// accesses at exactly the R / W -marked points of the paper's algorithm
// listings (§4), so a Probe sees the same event stream PAPI would observe
// on the authors' machines.
//
// Addresses are synthetic: internal/memsim assigns each modeled array a
// base address in a flat address space, and algorithms report
// base + index*elemSize. A Probe that only counts may ignore them.
//
// Probes are per-thread: each worker drives its own Probe instance, so
// implementations need no internal locking.
type Probe interface {
	// Read reports a shared-memory load of size bytes at addr.
	Read(addr uint64, size int)
	// Write reports a shared-memory store of size bytes at addr.
	Write(addr uint64, size int)
	// Atomic reports an atomic read-modify-write (FAA/CAS) at addr. For
	// cache modeling it behaves as a write that also reads.
	Atomic(addr uint64, size int)
	// Lock reports a lock acquisition protecting addr.
	Lock(addr uint64)
	// Branch reports a conditional branch (taken or not).
	Branch(taken bool)
	// Jump reports an unconditional branch (loop back-edge, call).
	Jump()
	// Exec reports instruction fetch within code region id; regions map to
	// distinct code pages, feeding the instruction-TLB model.
	Exec(region int)
}

// CountProbe is a Probe that only counts events into a Recorder; it ignores
// addresses and models no caches.
type CountProbe struct {
	Rec *Recorder
}

func (p *CountProbe) Read(addr uint64, size int)   { p.Rec.Inc(Reads) }
func (p *CountProbe) Write(addr uint64, size int)  { p.Rec.Inc(Writes) }
func (p *CountProbe) Atomic(addr uint64, size int) { p.Rec.Inc(Atomics) }
func (p *CountProbe) Lock(addr uint64)             { p.Rec.Inc(Locks) }
func (p *CountProbe) Branch(taken bool)            { p.Rec.Inc(BranchesCond) }
func (p *CountProbe) Jump()                        { p.Rec.Inc(BranchesUncond) }
func (p *CountProbe) Exec(region int)              {}

// NopProbe discards every event; it measures the instrumentation skeleton's
// own overhead in benchmarks.
type NopProbe struct{}

func (NopProbe) Read(addr uint64, size int)   {}
func (NopProbe) Write(addr uint64, size int)  {}
func (NopProbe) Atomic(addr uint64, size int) {}
func (NopProbe) Lock(addr uint64)             {}
func (NopProbe) Branch(taken bool)            {}
func (NopProbe) Jump()                        {}
func (NopProbe) Exec(region int)              {}

// MultiProbe fans every event out to several probes (e.g. a CountProbe plus
// a memsim probe).
type MultiProbe []Probe

func (m MultiProbe) Read(addr uint64, size int) {
	for _, p := range m {
		p.Read(addr, size)
	}
}
func (m MultiProbe) Write(addr uint64, size int) {
	for _, p := range m {
		p.Write(addr, size)
	}
}
func (m MultiProbe) Atomic(addr uint64, size int) {
	for _, p := range m {
		p.Atomic(addr, size)
	}
}
func (m MultiProbe) Lock(addr uint64) {
	for _, p := range m {
		p.Lock(addr)
	}
}
func (m MultiProbe) Branch(taken bool) {
	for _, p := range m {
		p.Branch(taken)
	}
}
func (m MultiProbe) Jump() {
	for _, p := range m {
		p.Jump()
	}
}
func (m MultiProbe) Exec(region int) {
	for _, p := range m {
		p.Exec(region)
	}
}

// Compile-time interface checks.
var (
	_ Probe = (*CountProbe)(nil)
	_ Probe = NopProbe{}
	_ Probe = MultiProbe(nil)
)
