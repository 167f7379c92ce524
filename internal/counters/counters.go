// Package counters implements the event-accounting substrate that stands in
// for the paper's PAPI hardware counters and manual atomic/lock counting
// (§6, "Counted Events").
//
// The paper records nine PAPI events (L1/L2/L3 misses, data/instruction TLB
// misses, reads, writes, conditional/unconditional branches) plus manually
// counted atomics and locks, and — in distributed settings — messages,
// collectives and remote reads/writes/atomics. This package defines that
// taxonomy, per-thread recorders that do not false-share, and a Probe
// interface through which instrumented ("profiled") algorithm variants
// report every event at exactly the R/W-marked points of the paper's
// listings. Cache and TLB misses are produced by internal/memsim, which
// plugs in behind the same Probe.
package counters

import (
	"fmt"
	"strings"
)

// Event identifies one counted event class.
type Event int

// The event taxonomy. The first block mirrors Table 1 of the paper; the
// second block covers the distributed-memory experiments (§6.3).
const (
	L1Miss Event = iota
	L2Miss
	L3Miss
	TLBDataMiss
	TLBInstMiss
	Atomics
	Locks
	Reads
	Writes
	BranchesUncond
	BranchesCond

	Messages
	BytesSent
	Collectives
	RemoteReads
	RemoteWrites
	RemoteAtomics

	NumEvents
)

var eventNames = [NumEvents]string{
	"L1 misses",
	"L2 misses",
	"L3 misses",
	"TLB misses (data)",
	"TLB misses (inst)",
	"atomics",
	"locks",
	"reads",
	"writes",
	"branches (uncond)",
	"branches (cond)",
	"messages",
	"bytes sent",
	"collectives",
	"remote reads",
	"remote writes",
	"remote atomics",
}

// String returns the human-readable event name used in report rows.
func (e Event) String() string {
	if e < 0 || e >= NumEvents {
		return fmt.Sprintf("Event(%d)", int(e))
	}
	return eventNames[e]
}

// Table1Events lists the events, in paper order, that make up Table 1.
func Table1Events() []Event {
	return []Event{
		L1Miss, L2Miss, L3Miss, TLBDataMiss, TLBInstMiss,
		Atomics, Locks, Reads, Writes, BranchesUncond, BranchesCond,
	}
}

// Recorder accumulates event counts for one thread. It is padded so a slice
// of Recorders can be indexed by worker ID without false sharing. Recorder
// methods are not atomic: each worker must own its Recorder exclusively.
type Recorder struct {
	counts [NumEvents]int64
	_      [64 - (NumEvents*8)%64%64]byte // pad to a cache-line boundary
}

// Add adds n occurrences of event e.
func (r *Recorder) Add(e Event, n int64) { r.counts[e] += n }

// Inc adds one occurrence of event e.
func (r *Recorder) Inc(e Event) { r.counts[e]++ }

// Get returns the count for event e.
func (r *Recorder) Get(e Event) int64 { return r.counts[e] }

// Reset zeroes all counts.
func (r *Recorder) Reset() { r.counts = [NumEvents]int64{} }

// Report is an aggregated, immutable view of event counts.
type Report struct {
	counts [NumEvents]int64
}

// Get returns the aggregated count for event e.
func (p Report) Get(e Event) int64 { return p.counts[e] }

// Add returns the event-wise sum of two reports.
func (p Report) Add(q Report) Report {
	var out Report
	for i := range p.counts {
		out.counts[i] = p.counts[i] + q.counts[i]
	}
	return out
}

// Sub returns the event-wise difference p − q.
func (p Report) Sub(q Report) Report {
	var out Report
	for i := range p.counts {
		out.counts[i] = p.counts[i] - q.counts[i]
	}
	return out
}

// Scale returns the report with every count divided by div (integer
// division), used to convert totals into per-iteration values as Table 1
// does for PR and BGC.
func (p Report) Scale(div int64) Report {
	if div == 0 {
		return p
	}
	var out Report
	for i := range p.counts {
		out.counts[i] = p.counts[i] / div
	}
	return out
}

// String formats the report with one "name: value" pair per line, using
// compact human units (k/M/B/T) as in the paper's Table 1.
func (p Report) String() string {
	var b strings.Builder
	for e := Event(0); e < NumEvents; e++ {
		if p.counts[e] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-18s %s\n", e.String()+":", Human(p.counts[e]))
	}
	return b.String()
}

// Aggregate sums a set of per-thread recorders into one Report.
func Aggregate(recs []*Recorder) Report {
	var out Report
	for _, r := range recs {
		if r == nil {
			continue
		}
		for i := range out.counts {
			out.counts[i] += r.counts[i]
		}
	}
	return out
}

// Group owns one Recorder per worker thread and hands out stable pointers.
type Group struct {
	recs []*Recorder
}

// NewGroup creates a group with n per-thread recorders.
func NewGroup(n int) *Group {
	g := &Group{recs: make([]*Recorder, n)}
	for i := range g.recs {
		g.recs[i] = &Recorder{}
	}
	return g
}

// Recorder returns the recorder for worker id.
func (g *Group) Recorder(id int) *Recorder { return g.recs[id] }

// Len returns the number of recorders in the group.
func (g *Group) Len() int { return len(g.recs) }

// Report aggregates all recorders.
func (g *Group) Report() Report { return Aggregate(g.recs) }

// Reset zeroes every recorder.
func (g *Group) Reset() {
	for _, r := range g.recs {
		r.Reset()
	}
}

// Human formats n with the paper's compact units: plain below 10^4, then
// k (10^3), M (10^6), B (10^9), T (10^12), keeping two significant decimals
// for scaled values.
func Human(n int64) string {
	neg := ""
	if n < 0 {
		neg = "-"
		n = -n
	}
	switch {
	case n < 10_000:
		return fmt.Sprintf("%s%d", neg, n)
	case n < 1_000_000:
		return fmt.Sprintf("%s%.2fk", neg, float64(n)/1e3)
	case n < 1_000_000_000:
		return fmt.Sprintf("%s%.2fM", neg, float64(n)/1e6)
	case n < 1_000_000_000_000:
		return fmt.Sprintf("%s%.2fB", neg, float64(n)/1e9)
	default:
		return fmt.Sprintf("%s%.2fT", neg, float64(n)/1e12)
	}
}
