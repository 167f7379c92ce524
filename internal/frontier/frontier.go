// Package frontier implements the frontier data structures of the paper's
// traversal algorithms (§4.3): per-thread sparse frontiers merged into a
// global next frontier (the my_F[1] ∪ … ∪ my_F[P] step of Algorithm 3,
// costed as a k-filter in the PRAM analysis), an atomic bitmap frontier
// for pull-based traversal, and the sparse↔dense conversion heuristic that
// drives direction-optimizing switching [4].
//
// The bitmap is packed: one bit per vertex in a []uint64, so a frontier
// over n vertices costs n/8 bytes of cache instead of the byte-per-vertex
// layout naive dense frontiers use — an 8× smaller footprint for the
// pull-side "is any neighbor in F?" probes and for the direction-switch
// heuristic's scans. Concurrent insertion is an atomic OR on the 64-vertex
// word (load-first, so re-inserts stay read-only); iteration and
// dense↔sparse conversion stride words, not vertices, via math/bits.
package frontier

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"pushpull/internal/graph"
)

// Sparse is a frontier as an explicit vertex list.
type Sparse struct {
	verts []graph.V
}

// NewSparse creates a sparse frontier with the given capacity hint.
func NewSparse(capacity int) *Sparse {
	return &Sparse{verts: make([]graph.V, 0, capacity)}
}

// Add appends v.
func (s *Sparse) Add(v graph.V) { s.verts = append(s.verts, v) }

// Len returns the number of vertices in the frontier.
func (s *Sparse) Len() int { return len(s.verts) }

// Vertices returns the underlying slice.
func (s *Sparse) Vertices() []graph.V { return s.verts }

// Reset empties the frontier, keeping capacity.
func (s *Sparse) Reset() { s.verts = s.verts[:0] }

// EdgeWork returns the total degree of the frontier — the quantity the
// direction-optimizing heuristic compares against the remaining edges.
func (s *Sparse) EdgeWork(g *graph.CSR) int64 {
	var w int64
	for _, v := range s.verts {
		w += g.Degree(v)
	}
	return w
}

// Sort puts s in increasing id order; its vertices must be distinct.
// scratch must be an empty bitmap over the vertex range: a long frontier
// is set in it and read back out (Bitmap.Drain), and it is left empty.
func (s *Sparse) Sort(scratch *Bitmap) {
	for _, v := range s.verts {
		scratch.SetSeq(v)
	}
	scratch.Drain(s.verts)
}

// PerThread is the my_F array of Algorithm 3: one private frontier per
// thread, merged after each iteration.
type PerThread struct {
	bufs [][]graph.V
}

// NewPerThread creates p private frontiers.
func NewPerThread(p int) *PerThread {
	return &PerThread{bufs: make([][]graph.V, p)}
}

// Threads returns the number of private frontiers.
func (pt *PerThread) Threads() int { return len(pt.bufs) }

// Add appends v to thread w's private frontier.
func (pt *PerThread) Add(w int, v graph.V) { pt.bufs[w] = append(pt.bufs[w], v) }

// Merge concatenates all private frontiers into dst (reset first) in
// thread order — the deterministic realization of the k-filter — and
// clears the private buffers for the next iteration.
func (pt *PerThread) Merge(dst *Sparse) {
	dst.Reset()
	for w := range pt.bufs {
		dst.verts = append(dst.verts, pt.bufs[w]...)
		pt.bufs[w] = pt.bufs[w][:0]
	}
}

// Bitmap is a packed dense frontier with atomic insertion, used by
// pull-based traversals where every unvisited vertex probes "is any
// neighbor in F?". One bit per vertex, 64 vertices per word.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap creates an empty bitmap over n vertices.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// N returns the bitmap's vertex capacity.
func (b *Bitmap) N() int { return b.n }

// Set marks v; it is safe for concurrent use and returns true if this call
// changed the bit (i.e. the caller won the insertion race). The common
// re-insert case (bit already set — every later frontier edge to the same
// vertex) exits on the plain load without issuing a write at all; only a
// genuinely new bit pays the atomic OR on its 64-vertex word, expressed as
// a CAS because the sync/atomic OrUint64 intrinsic miscompiles under
// go1.24.0 when inlined into deep loops.
func (b *Bitmap) Set(v graph.V) bool {
	word := &b.words[v>>6]
	mask := uint64(1) << (uint(v) & 63)
	for {
		old := atomic.LoadUint64(word)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|mask) {
			return true
		}
	}
}

// SetSeq marks v without atomics (single-writer phases).
func (b *Bitmap) SetSeq(v graph.V) {
	b.words[v>>6] |= uint64(1) << (uint(v) & 63)
}

// Get reports whether v is marked.
func (b *Bitmap) Get(v graph.V) bool {
	return b.words[v>>6]&(uint64(1)<<(uint(v)&63)) != 0
}

// ClearSeq unmarks v without atomics (single-writer phases).
func (b *Bitmap) ClearSeq(v graph.V) {
	b.words[v>>6] &^= uint64(1) << (uint(v) & 63)
}

// Clear resets all bits.
func (b *Bitmap) Clear() {
	clear(b.words)
}

// Fill marks every vertex [0, n): whole words first, then the tail bits,
// so the capacity slack past n stays zero and Count stays honest.
func (b *Bitmap) Fill() {
	full := b.n >> 6
	for i := 0; i < full; i++ {
		b.words[i] = ^uint64(0)
	}
	if rem := uint(b.n) & 63; rem != 0 {
		b.words[full] = (uint64(1) << rem) - 1
	}
}

// BlockSummary ORs each run of blockVerts/64 words into one summary bit
// per vertex block: dst's bit i is set iff any vertex of block i is
// marked. blockVerts must be a positive multiple of 64, so block
// boundaries never split a word — this is the per-block frontier summary
// the out-of-core pull kernels consult to skip cold blocks without
// touching their segments. dst must hold at least
// ceil(ceil(n/blockVerts)/64) words; the used prefix is rewritten.
func (b *Bitmap) BlockSummary(dst []uint64, blockVerts int) {
	wordsPerBlock := blockVerts >> 6
	numBlocks := (b.n + blockVerts - 1) / blockVerts
	for i := 0; i < (numBlocks+63)/64; i++ {
		dst[i] = 0
	}
	for bi := 0; bi < numBlocks; bi++ {
		lo := bi * wordsPerBlock
		hi := lo + wordsPerBlock
		if hi > len(b.words) {
			hi = len(b.words)
		}
		var any uint64
		for _, w := range b.words[lo:hi] {
			any |= w
		}
		if any != 0 {
			dst[bi>>6] |= uint64(1) << (uint(bi) & 63)
		}
	}
}

// MergeWords overwrites words [lo, hi) of b with the OR of the same words
// of every src and zeroes them in the sources — the reduction that turns
// per-worker private bitmaps into one shared bitmap without an atomic OR:
// callers split [0, len(Words())) among workers, so each word of b and of
// the sources is touched by exactly one of them, and the sources come out
// empty for the next round. Zero source words (nearly all of them under a
// sparse frontier) cost a load and a compare.
func (b *Bitmap) MergeWords(srcs []*Bitmap, lo, hi int) {
	dst := b.words[lo:hi]
	clear(dst)
	for _, s := range srcs {
		src := s.words[lo:hi]
		for i, w := range src {
			if w != 0 {
				dst[i] |= w
				src[i] = 0
			}
		}
	}
}

// Count returns the number of set bits, scanning words not vertices.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ToSparse converts the bitmap into a sparse frontier. The scan is
// word-strided: zero words (the common case on sparse frontiers) cost one
// load and one compare for 64 vertices.
func (b *Bitmap) ToSparse(dst *Sparse) {
	dst.Reset()
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			idx := base + bits.TrailingZeros64(w)
			if idx < b.n {
				dst.verts = append(dst.verts, graph.V(idx))
			}
			w &= w - 1
		}
	}
}

// Drain puts list in increasing id order and leaves b empty. list must
// hold distinct vertices and b exactly their bits. It takes whichever
// read-out is cheaper: a short list is sorted, about k·log₂k steps, and
// its bits cleared one by one; a long one is read out of the words, one
// step per word and per vertex. So a round of a few vertices never pays a
// pass over n/64 words, and a large one never pays a comparison sort.
func (b *Bitmap) Drain(list []graph.V) {
	if len(list)*bits.Len(uint(len(list))) < len(b.words) {
		slices.Sort(list)
		for _, v := range list {
			b.ClearSeq(v)
		}
		return
	}
	i := 0
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		b.words[wi] = 0
		for base := wi << 6; w != 0; w &= w - 1 {
			list[i] = graph.V(base + bits.TrailingZeros64(w))
			i++
		}
	}
}

// FromSparse sets every vertex of src (sequentially).
func (b *Bitmap) FromSparse(src *Sparse) {
	for _, v := range src.Vertices() {
		b.SetSeq(v)
	}
}

// Words exposes the packed representation (read-only by convention): the
// memory the profiled kernels model and the footprint the direction-switch
// heuristic's scans traverse.
func (b *Bitmap) Words() []uint64 { return b.words }

// Alpha and Beta are the direction-optimizing switch parameters Beamer
// et al. [4] published: α = 14 for the edge-work test, β = 24 for the
// frontier-size test.
const (
	Alpha = 14
	Beta  = 24
)

// UsePull is the direction-optimizing policy of Beamer et al. [4]: it
// picks bottom-up (pull) for the next iteration when the frontier's edge
// work exceeds unexploredEdges/α, and keeps pulling while the frontier
// holds more than n/β vertices and over half that edge work; otherwise it
// picks top-down (push).
func UsePull(frontierEdges, unexploredEdges int64, frontierLen, n int) bool {
	if frontierEdges > unexploredEdges/Alpha {
		return true
	}
	return int64(frontierLen) > int64(n)/Beta && frontierEdges > unexploredEdges/(Alpha*2)
}
