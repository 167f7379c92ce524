// Package gc implements push- and pull-based Boman graph coloring (paper
// §3.6 and Algorithm 6) together with the acceleration strategies of §5:
// Frontier-Exploit (FE), Generic-Switch (GS), Greedy-Switch (GrS) and
// Conflict-Removal (CR), plus the optimized sequential greedy baseline they
// switch to.
//
// Boman coloring alternates two phases. Phase 1 colors each thread's
// partition independently (seq_color_partition). Phase 2 scans border
// vertices for cross-partition conflicts; a conflicting pair schedules one
// endpoint for recoloring by forbidding its color in the avail matrix. The
// push variant writes avail[u][c] of the *other* thread's vertex — which
// also lets it hand the exact set of dirty vertices to the next iteration —
// while the pull variant may only write its own avail[v][c], so every
// iteration must rescan all border vertices to find out what changed. That
// asymmetry (same lock count, more pull reads) is the Table 1 BGC column.
//
// Frontier-Exploit colors the uncolored neighbors of the last round's
// winners with one fresh color per round, resolving conflicts in id order
// inside a candidate bitmap. Pushed, a round reads each winner's row once:
// the winners mark the next round's candidates in the same row walk that
// resolves them. Pulled, each uncolored row first looks for a frontier
// neighbor, one bitmap word per writer.
package gc

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"pushpull/internal/atomicx"
	"pushpull/internal/core"
	"pushpull/internal/frontier"
	"pushpull/internal/graph"
	"pushpull/internal/sched"
)

// Options configures a coloring run.
type Options struct {
	core.Options
	// MaxIters bounds the conflict-resolution iterations L (default 64).
	MaxIters int
}

func (o *Options) defaults() {
	if o.MaxIters <= 0 {
		o.MaxIters = 64
	}
}

// Result carries the coloring and run metadata.
type Result struct {
	Colors     []int32
	Iterations int
	NumColors  int
	Stats      core.RunStats
	// Dirs records the direction of every iteration for the switching
	// strategies (Frontier-Exploit under Generic-Switch); fixed-direction
	// runs leave it nil and Stats.Direction is authoritative.
	Dirs []core.Direction
}

// bitrow is a growable bitset of forbidden colors for one vertex.
type bitrow []uint64

func (b *bitrow) set(c int32) {
	w := int(c) >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(c) & 63)
}

func (b bitrow) get(c int32) bool {
	w := int(c) >> 6
	return w < len(b) && b[w]&(1<<(uint(c)&63)) != 0
}

// smallestAllowed returns the smallest color not forbidden by the row and
// not present in taken (a scratch set of same-partition neighbor colors).
func smallestAllowed(row bitrow, taken map[int32]bool) int32 {
	for c := int32(0); ; c++ {
		if !row.get(c) && !taken[c] {
			return c
		}
	}
}

// state is the shared coloring state of one Boman run.
type state struct {
	g      *graph.CSR
	part   graph.Partition
	colors []int32
	avail  []bitrow
	// needs[v] marks vertices requiring (re)coloring in the next phase 1.
	needs *frontier.Bitmap
}

func newState(g *graph.CSR, part graph.Partition) *state {
	n := g.N()
	s := &state{
		g:      g,
		part:   part,
		colors: make([]int32, n),
		avail:  make([]bitrow, n),
		needs:  frontier.NewBitmap(n),
	}
	for i := range s.colors {
		s.colors[i] = -1
		s.needs.SetSeq(graph.V(i))
	}
	return s
}

// colorPartition is seq_color_partition of Algorithm 6: greedily color the
// vertices of one partition that need a color, respecting the avail matrix
// and the current colors of same-partition neighbors only.
func (s *state) colorPartition(w int) {
	lo, hi := s.part.Range(w)
	taken := map[int32]bool{}
	for v := lo; v < hi; v++ {
		if !s.needs.Get(v) {
			continue
		}
		clear(taken)
		for _, u := range s.g.Neighbors(v) {
			if lo <= u && u < hi && s.colors[u] >= 0 {
				taken[s.colors[u]] = true
			}
		}
		s.colors[v] = smallestAllowed(s.avail[v], taken)
	}
}

// Push runs Boman coloring with push-based conflict fixing: the thread
// scanning border vertex v writes the loser's avail row and dirty flag
// directly, so the next iteration only visits the exact dirty set.
func Push(g *graph.CSR, part graph.Partition, opt Options) (*Result, error) {
	return runBoman(g, part, opt, core.Push)
}

// Pull runs Boman coloring with pull-based conflict fixing: each thread
// only writes its own vertices' state, so it must rescan every border
// vertex every iteration to detect conflicts.
func Pull(g *graph.CSR, part graph.Partition, opt Options) (*Result, error) {
	return runBoman(g, part, opt, core.Pull)
}

func runBoman(g *graph.CSR, part graph.Partition, opt Options, dir core.Direction) (*Result, error) {
	opt.defaults()
	n := g.N()
	res := &Result{Colors: make([]int32, n)}
	res.Stats.Direction = dir
	if n == 0 {
		return res, nil
	}
	if int(part.NumV) != n {
		return nil, fmt.Errorf("gc: partition over %d vertices for a graph with %d", part.NumV, n)
	}
	s := newState(g, part)
	t := part.P
	pool := sched.NewPool(t)
	defer pool.Close()

	border := part.Border(g)
	// Pull threads may only touch their own vertices, so the pull scan is
	// the owner's slice of the border set — recomputed wholesale every
	// iteration because no one may tell a thread which neighbors changed.
	borderByOwner := make([][]graph.V, t)
	for _, v := range border {
		o := part.Owner(v)
		borderByOwner[o] = append(borderByOwner[o], v)
	}
	// Push, by contrast, maintains the exact dirty set: whoever forbids a
	// color also flags the victim for the next scan.
	dirty := border
	dirtyNext := frontier.NewPerThread(t)
	conflictCount := make([]int, t)
	// rowLocks guard the growable avail rows. Both variants acquire one
	// lock per conflict marking, reproducing Table 1's identical BGC lock
	// counts for push and pull.
	rowLocks := make([]atomicx.SpinLock, g.N())

	// Phase bodies hoisted out of the iteration loop so the steady state
	// does not allocate; dirty is captured by reference, so the per-round
	// reassignment below stays visible.
	colorPhase := func(w int) { s.colorPartition(w) }
	fixConflicts := func(w int) {
		mark := func(loser graph.V, c int32) {
			rowLocks[loser].Lock()
			s.avail[loser].set(c)
			rowLocks[loser].Unlock()
			if s.needs.Set(loser) && dir == core.Push {
				dirtyNext.Add(w, loser)
			}
		}
		if dir == core.Push {
			// Scan the dirty set; any thread may mark any loser.
			lo, hi := sched.BlockRange(len(dirty), t, w)
			for i := lo; i < hi; i++ {
				v := dirty[i]
				vlo, vhi := part.Range(part.Owner(v))
				cv := s.colors[v]
				for _, u := range g.Neighbors(v) {
					if (vlo <= u && u < vhi) || s.colors[u] != cv {
						continue
					}
					conflictCount[w]++
					// Deterministic loser: the higher id — written
					// directly even when owned by another thread.
					if u > v {
						mark(u, cv) // W i in Algorithm 6
					} else {
						mark(v, cv)
					}
				}
			}
			return
		}
		// Pull: each thread scans only the border vertices it owns and
		// only ever modifies those.
		lo, hi := part.Range(w)
		for _, v := range borderByOwner[w] {
			cv := s.colors[v]
			for _, u := range g.Neighbors(v) {
				if (lo <= u && u < hi) || s.colors[u] != cv {
					continue
				}
				conflictCount[w]++
				if v > u { // v loses: mark own state only
					mark(v, cv)
				}
			}
		}
	}

	for iter := 0; iter < opt.MaxIters; iter++ {
		if opt.Canceled() {
			res.Stats.Canceled = true
			break
		}
		start := time.Now()
		// Phase 1: color each partition independently.
		pool.Run(colorPhase)
		s.needs.Clear()

		// Phase 2: fix_conflicts over border vertices.
		for i := range conflictCount {
			conflictCount[i] = 0
		}
		pool.Run(fixConflicts)
		res.Iterations++
		el := time.Since(start)
		res.Stats.Record(el)
		opt.Tick(iter, el)

		total := 0
		for _, c := range conflictCount {
			total += c
		}
		if dir == core.Push {
			var merged frontier.Sparse
			dirtyNext.Merge(&merged)
			dirty = dedupe(merged.Vertices())
		}
		if total == 0 {
			break
		}
	}
	copy(res.Colors, s.colors)
	res.NumColors = CountColors(res.Colors)
	return res, nil
}

// dedupe removes duplicate vertices, preserving first-seen order.
func dedupe(vs []graph.V) []graph.V {
	seen := map[graph.V]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Greedy colors the whole graph with the optimized sequential greedy scheme
// — the baseline Greedy-Switch falls back to, and the CR border pass.
func Greedy(g *graph.CSR) *Result {
	n := g.N()
	res := &Result{Colors: make([]int32, n), Iterations: 1}
	for i := range res.Colors {
		res.Colors[i] = -1
	}
	start := time.Now()
	greedyColorSubset(g, res.Colors, nil)
	res.Stats.Record(time.Since(start))
	res.NumColors = CountColors(res.Colors)
	return res
}

// greedyScratch is one worker's reusable state for greedy coloring:
// seen[c] == stamp marks color c as held by a neighbor of the vertex being
// colored, and bumping stamp forgets every mark at once.
type greedyScratch struct {
	seen  []uint32
	stamp uint32
}

// colorOne gives v, if uncolored, the smallest color no colored neighbor
// holds. v's d neighbors hold at most d colors, so one in [0, d] is free
// and larger neighbor colors are never looked up.
func (s *greedyScratch) colorOne(g *graph.CSR, colors []int32, v graph.V) {
	if colors[v] >= 0 {
		return
	}
	nb := g.Neighbors(v)
	if len(nb) >= len(s.seen) {
		s.seen = make([]uint32, max(len(nb)+1, 2*len(s.seen)))
		s.stamp = 0
	}
	s.stamp++
	for _, u := range nb {
		if c := colors[u]; c >= 0 && int(c) <= len(nb) {
			s.seen[c] = s.stamp
		}
	}
	c := int32(0)
	for s.seen[c] == s.stamp {
		c++
	}
	colors[v] = c
}

// greedyColorSubset greedily colors the given vertices (nil = all, in id
// order) respecting all already-assigned neighbor colors.
func greedyColorSubset(g *graph.CSR, colors []int32, verts []graph.V) {
	var s greedyScratch
	if verts == nil {
		for v := graph.V(0); v < g.NumV; v++ {
			s.colorOne(g, colors, v)
		}
		return
	}
	for _, v := range verts {
		s.colorOne(g, colors, v)
	}
}

// ConflictRemoval implements the CR strategy (§5, Algorithm 9): color the
// border set sequentially first, then color each partition in parallel —
// no cross-partition conflict can occur, so a single iteration suffices.
func ConflictRemoval(g *graph.CSR, part graph.Partition, opt Options) (*Result, error) {
	opt.defaults()
	n := g.N()
	res := &Result{Colors: make([]int32, n)}
	if n == 0 {
		return res, nil
	}
	if int(part.NumV) != n {
		return nil, fmt.Errorf("gc: partition over %d vertices for a graph with %d", part.NumV, n)
	}
	colors := make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	start := time.Now()
	// Cancellation is polled between the two phases; a cancelled run
	// returns the partially-colored state (uncolored vertices stay -1).
	canceled := opt.Canceled()
	if !canceled {
		// seq_color_partition(B): border first, sequentially, conflict-free.
		greedyColorSubset(g, colors, part.Border(g))
		canceled = opt.Canceled()
	}
	if !canceled {
		// Then all partitions in parallel; border vertices are fixed,
		// interior vertices of different partitions are never adjacent.
		pool := sched.NewPool(part.P)
		defer pool.Close()
		pool.Run(func(w int) {
			lo, hi := part.Range(w)
			var s greedyScratch
			for v := lo; v < hi; v++ {
				s.colorOne(g, colors, v)
			}
		})
	}
	res.Stats.Canceled = canceled
	res.Iterations = 1
	res.Stats.Record(time.Since(start))
	copy(res.Colors, colors)
	res.NumColors = CountColors(res.Colors)
	return res, nil
}

// Validate returns an error if the coloring is invalid: an uncolored vertex
// or a monochromatic edge.
func Validate(g *graph.CSR, colors []int32) error {
	if len(colors) != g.N() {
		return errors.New("gc: color array length mismatch")
	}
	for v := graph.V(0); v < g.NumV; v++ {
		if colors[v] < 0 {
			return fmt.Errorf("gc: vertex %d uncolored", v)
		}
		for _, u := range g.Neighbors(v) {
			if u != v && colors[u] == colors[v] {
				return fmt.Errorf("gc: edge (%d,%d) monochromatic (color %d)", v, u, colors[v])
			}
		}
	}
	return nil
}

// CountColors returns the number of distinct colors used; negative
// entries (uncolored) count for nothing. It marks colors in a bitset
// sized to the largest one, which a coloring of n vertices keeps below
// n; colors so large that the bitset would outgrow the colors themselves
// are counted on a sorted copy instead.
func CountColors(colors []int32) int {
	var top int32 = -1
	for _, c := range colors {
		top = max(top, c)
	}
	if top < 0 {
		return 0
	}
	if int(top>>6) > len(colors) {
		sorted := slices.Clone(colors)
		slices.Sort(sorted)
		count := 0
		for i, c := range sorted {
			if c >= 0 && (i == 0 || c != sorted[i-1]) {
				count++
			}
		}
		return count
	}
	seen := make([]uint64, top>>6+1)
	count := 0
	for _, c := range colors {
		if c < 0 {
			continue
		}
		word, bit := &seen[c>>6], uint64(1)<<(c&63)
		if *word&bit == 0 {
			*word |= bit
			count++
		}
	}
	return count
}
