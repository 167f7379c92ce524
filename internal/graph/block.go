// Out-of-core block view: the graph behind the facade's file handles
// (OpenOutOfCoreWorkload, a DiskStore above its block threshold), after
// HybridGraph's VE-BLOCK storage. The file is a binary CSR (csrfile.go)
// whose header carries the pull-view flag. Vertices are grouped into
// blocks of BlockVerts (a multiple of 64, so one block never shares a
// frontier-bitmap word with another), and since the adjacency section is
// stored row by row, block b's arcs are one contiguous byte range,
// 4·Offsets[lo .. hi] past the section's start. A pull kernel that walks
// destination blocks in storage order therefore reads the edge array
// forward, page by page; the random vertex-state traffic stays confined
// to the O(n) arrays that fit in memory, and the O(m) adjacency never
// needs to be resident at once.
//
// The kernels (BlockCursor) read only the adjacency, 4 bytes per arc;
// only the content-identity walk (VisitArcs) reads the weights. The
// opener checks the header, offsets and out-degrees, so a truncated or
// bit-flipped file fails loudly instead of serving a wrong graph; each
// block's arc ids are checked against n at its first Load on a handle,
// so a flipped id fails the run that reads it instead of indexing past a
// kernel's arrays.
package graph

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"unsafe"
)

// BlockCSR is an open pull-view file: the O(n) vertex state (offsets,
// out-degrees) lives in memory, the O(m) arcs stay on disk behind either
// a read-only mmap or a buffered ReadAt cursor.
type BlockCSR struct {
	NumV int32
	// BlockVerts is the vertices per block, derived from NumV at open
	// (blockVertsFor), a multiple of 64.
	BlockVerts int32
	// Offsets is the pull-view CSR offset array (len NumV+1).
	Offsets []int64
	// OutDeg is the out-degree section of a directed file, nil otherwise.
	OutDeg []int64

	adjCount      int64
	numBlocks     int
	maxBlockBytes int64 // the largest block's adjacency, 4 bytes per arc
	weighted      bool
	directed      bool
	// checked[bi] is set once block bi's arc ids were found below NumV.
	checked []atomic.Bool

	f    *os.File
	data []byte // mmap view; nil in buffered mode
}

// N returns the vertex count.
func (g *BlockCSR) N() int { return int(g.NumV) }

// M returns the stored arc count (2m for undirected files).
func (g *BlockCSR) M() int64 { return g.adjCount }

// Weighted reports whether the file carries edge weights.
func (g *BlockCSR) Weighted() bool { return g.weighted }

// Directed reports whether the file stores a directed graph (the
// adjacency is then the pull/in-edge view and OutDeg is present).
func (g *BlockCSR) Directed() bool { return g.directed }

// Mmapped reports whether the arcs are served by mmap (false:
// the buffered ReadAt fallback).
func (g *BlockCSR) Mmapped() bool { return g.data != nil }

// NumBlocks returns the number of vertex blocks.
func (g *BlockCSR) NumBlocks() int { return g.numBlocks }

// arcAt is the file position of arc i's entry in the adjacency section;
// arcAt(M()) is where the weights, or the out-degrees, begin.
func (g *BlockCSR) arcAt(i int64) int64 {
	return csrHeaderBytes + 8*(int64(g.NumV)+1) + 4*i
}

// BlockRange returns the vertex range [lo, hi) of block bi.
func (g *BlockCSR) BlockRange(bi int) (lo, hi V) {
	lo = V(bi) * g.BlockVerts
	hi = lo + g.BlockVerts
	if hi > g.NumV {
		hi = g.NumV
	}
	return lo, hi
}

// Degree returns the pull-view degree of v (in-degree for directed
// files) from the in-memory offsets — no disk access.
func (g *BlockCSR) Degree(v V) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// ContribDegree returns the degree a neighbor's contribution scales by:
// the out-degree for directed files, the plain degree otherwise. This
// is the §4.8 split — pulling iterates in-edges but normalizes by the
// source's out-degree.
func (g *BlockCSR) ContribDegree(v V) int64 {
	if g.OutDeg != nil {
		return g.OutDeg[v]
	}
	return g.Offsets[v+1] - g.Offsets[v]
}

// Close unmaps and closes the file. The BlockCSR (and any cursor over
// it) must not be used afterwards.
func (g *BlockCSR) Close() error {
	var err error
	if g.data != nil {
		err = munmap(g.data)
		g.data = nil
	}
	if g.f != nil {
		if cerr := g.f.Close(); err == nil {
			err = cerr
		}
		g.f = nil
	}
	return err
}

// BlockCursor is the per-worker scratch of block iteration: Load points
// it at one block's range of the adjacency section (a zero-copy sub-slice
// under mmap, a reused read buffer otherwise), and Row serves adjacency
// slices out of it. The weights are never read into it: no block kernel
// uses them. A cursor is single-goroutine; kernels keep one per worker,
// hoisted outside their round loops so steady-state iteration allocates
// nothing. The kernels deal blocks to workers from a shared cursor, so
// any worker may load any block: a buffered cursor's read buffer is
// sized for the largest block at its first Load, once, and reused. A run
// therefore holds at most one block per worker, and never more than the
// largest block's bytes per worker.
type BlockCursor struct {
	g     *BlockCSR
	block int
	seg   []byte // the loaded block's adjacency, 4 bytes per arc
	base  int64  // Offsets[lo] of the loaded block
	buf   []byte
	vbuf  []V // big-endian-host decode scratch
}

// Load points cur at block bi's arcs, reading them from disk in
// buffered mode (a no-op when the block is already loaded). The first
// Load of a block on this handle checks its arc ids; a block naming a
// vertex at or past N is an error, on that Load and every later one.
func (g *BlockCSR) Load(bi int, cur *BlockCursor) error {
	if cur.g == g && cur.block == bi && cur.seg != nil {
		return nil
	}
	lo, hi := g.BlockRange(bi)
	if g.data == nil && int64(cap(cur.buf)) < g.maxBlockBytes {
		cur.buf = make([]byte, g.maxBlockBytes)
	}
	seg, err := g.read(g.arcAt(g.Offsets[lo]), g.arcAt(g.Offsets[hi]), &cur.buf)
	if err != nil {
		err = fmt.Errorf("graph: block %d: %w", bi, err)
	} else if !g.checked[bi].Load() {
		if err = g.checkIDs(bi, castLE(seg, &cur.vbuf)); err == nil {
			g.checked[bi].Store(true)
		}
	}
	if err != nil {
		cur.seg = nil
		return err
	}
	cur.g, cur.block, cur.seg, cur.base = g, bi, seg, g.Offsets[lo]
	return nil
}

// read returns the file bytes [start, end): a view of the mapping, or
// the bytes read into *buf, grown once to the largest request.
func (g *BlockCSR) read(start, end int64, buf *[]byte) ([]byte, error) {
	if g.data != nil {
		return g.data[start:end], nil
	}
	need := int(end - start)
	if cap(*buf) < need {
		*buf = make([]byte, need)
	}
	b := (*buf)[:need]
	if _, err := g.f.ReadAt(b, start); err != nil {
		return nil, fmt.Errorf("reading bytes [%d, %d): %w", start, end, err)
	}
	return b, nil
}

// checkIDs reports the first arc of block bi whose id is not a vertex.
func (g *BlockCSR) checkIDs(bi int, adj []V) error {
	for i, u := range adj {
		if uint32(u) >= uint32(g.NumV) {
			lo, _ := g.BlockRange(bi)
			return fmt.Errorf("graph: block %d: arc %d names vertex %d, the file has %d vertices (corrupt file)",
				bi, g.Offsets[lo]+int64(i), u, g.NumV)
		}
	}
	return nil
}

// Row returns the adjacency of v, which must lie in the loaded block.
// Under mmap (or the reused read buffer) on a little-endian host this
// is a zero-copy view of the file bytes.
func (cur *BlockCursor) Row(v V) []V {
	s := (cur.g.Offsets[v] - cur.base) * 4
	e := (cur.g.Offsets[v+1] - cur.base) * 4
	return castLE(cur.seg[s:e], &cur.vbuf)
}

// castLE views little-endian file bytes as an array of 4-byte elements,
// in place on a little-endian host and through scratch on a big-endian
// one.
func castLE[T V | float32](b []byte, scratch *[]T) []T {
	if len(b) == 0 {
		return nil
	}
	if !hostLittleEndian {
		if cap(*scratch) < len(b)/4 {
			*scratch = make([]T, len(b)/4)
		}
		out := rawBytes((*scratch)[:len(b)/4])
		copy(out, b)
		swapBytes(out, 4)
		b = out
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/4)
}

// VisitArcs streams the adjacency section and then the weights section
// in storage order, through one buffer of at most 1 MiB (views of the
// mapping under mmap): fn sees the arcs with nil weights, then the
// weights with nil arcs. The content-identity digest walks the graph this
// way without materializing it. It is the one reader of the weights, and
// it does not check arc ids.
func (g *BlockCSR) VisitArcs(fn func(adj []V, weights []float32)) error {
	var buf []byte
	var vbuf []V
	var wbuf []float32
	weights, end := g.arcAt(g.adjCount), g.arcAt(g.adjCount)
	if g.weighted {
		end += 4 * g.adjCount
	}
	for pos := g.arcAt(0); pos < end; {
		next := min(end, pos+1<<20)
		if pos < weights {
			next = min(next, weights)
		}
		b, err := g.read(pos, next, &buf)
		if err != nil {
			return fmt.Errorf("graph: pull view: %w", err)
		}
		if pos < weights {
			fn(castLE(b, &vbuf), nil)
		} else {
			fn(nil, castLE(b, &wbuf))
		}
		pos = next
	}
	return nil
}

// ---- opening ----

// ErrNotPullView is OpenBlockCSR's refusal of a binary CSR whose header
// does not mark a pull view: an in-memory graph's file, for ReadCSR.
var ErrNotPullView = errors.New("graph: the binary CSR is not a pull view")

// blockVertsFor derives the vertices per block from n: ⌈n/64⌉ rounded up
// to a multiple of 64, within [64, 4096]. 4096 keeps a suite graph's
// block around a few hundred KiB, large enough for readahead to win and
// small enough for a frontier summary bit per block to skip real work.
func blockVertsFor(n int) int32 {
	return int32(min(4096, max(64, ((n+63)/64+63)&^63)))
}

// OpenBlockCSR opens a pull-view file (WritePullView), loading the O(n)
// vertex state into memory and checking the header against the file's
// size and the offsets and out-degrees against the arc count: corruption
// and truncation fail here, loudly, not inside a kernel. A binary CSR
// without the pull-view flag fails with ErrNotPullView. buffered forces
// the portable ReadAt reader even where mmap is available: blocks are
// then read into fixed per-cursor buffers, so the process's resident set
// holds at most one block per worker. Where mmap fails or is unsupported
// the buffered reader serves too: same results, bounded buffers.
func OpenBlockCSR(path string, buffered bool) (*BlockCSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: open pull view: %w", err)
	}
	g, size, err := readPullView(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graph: pull view %s: %w", path, err)
	}
	g.f = f
	if !buffered {
		g.data, _ = mmapFile(f, size)
	}
	return g, nil
}

// readPullView reads and checks f's header, offsets and out-degrees, and
// returns the file's size.
func readPullView(f *os.File) (*BlockCSR, int64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := st.Size()
	flags, n, m, err := readCSRHeader(f)
	if err != nil {
		return nil, 0, err
	}
	if flags&csrFlagPullView == 0 {
		return nil, 0, ErrNotPullView
	}
	g := &BlockCSR{
		NumV:       int32(n),
		BlockVerts: blockVertsFor(int(n)),
		weighted:   flags&csrFlagWeighted != 0,
		directed:   flags&csrFlagDirected != 0,
	}
	// Every array below is sized by the header's counts, so the file's
	// exact size is checked first: a few-byte file claiming 2^31 vertices
	// fails here, not after an allocation of gigabytes. Four bytes per arc
	// must fit before m is multiplied.
	want := int64(-1)
	if m <= uint64(size)/4 {
		g.adjCount = int64(m)
		want = csrBytes(int(n), g.adjCount, g.weighted)
		if g.directed {
			want += 8 * int64(n)
		}
	}
	if size != want {
		return nil, 0, fmt.Errorf("%d bytes on disk, %d vertices and %d arcs need %d (truncated or corrupt file)", size, n, m, want)
	}
	g.Offsets = make([]int64, int(n)+1)
	if err := readLE(f, rawBytes(g.Offsets), 8, "offsets"); err != nil {
		return nil, 0, err
	}
	if err := checkOffsets(g.Offsets, g.adjCount); err != nil {
		return nil, 0, err
	}
	if g.directed {
		// Each out-degree is bounded before it is added, so the sum cannot
		// overflow.
		g.OutDeg = make([]int64, n)
		at := csrBytes(int(n), g.adjCount, g.weighted)
		if err := readLE(io.NewSectionReader(f, at, 8*int64(n)), rawBytes(g.OutDeg), 8, "out-degrees"); err != nil {
			return nil, 0, err
		}
		var sum int64
		for v, d := range g.OutDeg {
			if d < 0 || d > g.adjCount-sum {
				return nil, 0, fmt.Errorf("out-degree %d of vertex %d takes the sum past the %d arcs", d, v, g.adjCount)
			}
			sum += d
		}
		if sum != g.adjCount {
			return nil, 0, fmt.Errorf("out-degrees sum to %d, the file holds %d arcs", sum, g.adjCount)
		}
	}
	g.numBlocks = (int(n) + int(g.BlockVerts) - 1) / int(g.BlockVerts)
	g.checked = make([]atomic.Bool, g.numBlocks)
	for bi := 0; bi < g.numBlocks; bi++ {
		lo, hi := g.BlockRange(bi)
		g.maxBlockBytes = max(g.maxBlockBytes, 4*(g.Offsets[hi]-g.Offsets[lo]))
	}
	return g, size, nil
}
