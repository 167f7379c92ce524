// Out-of-core block CSR: the on-disk graph layout behind the facade's
// WithOutOfCore path, after HybridGraph's VE-BLOCK storage.
// Vertices are grouped into fixed-size blocks (a multiple of 64, so one
// block never shares a frontier-bitmap word with another) and each
// block's adjacency rows are laid contiguously in one file segment. A
// pull kernel that walks destination blocks in storage order therefore
// touches the edge array as a sequence of forward page reads — the
// random vertex-state traffic stays confined to the O(n) arrays that do
// fit in memory (offsets, degrees, rank/frontier vectors), while the
// O(m) adjacency never needs to be resident at once.
//
// The file is little-endian throughout:
//
//	header    magic, version, flags, blockVerts (u32 each);
//	          n, adjCount, numBlocks (u64 each)
//	offsets   (n+1)×u64  — the pull-view CSR offsets (loaded at open)
//	outdeg    n×u64      — directed files only: out-degrees (loaded)
//	blockIdx  (numBlocks+1)×u64 — absolute byte offset of each block's
//	          segment; the last entry is the file size
//	segments  per block: adjacency (i32 per arc), then weights (f32 per
//	          arc) when the weighted flag is set, padded to 8 bytes
//
// For a directed graph the stored adjacency is the PULL view (in-edges)
// and the out-degree array scales contributions (PageRank divides by
// out-degree); undirected files store the symmetric adjacency and need
// no degree sidecar. The blockIdx array is redundant with the offsets —
// deliberately: it is revalidated entry by entry at open, so a
// truncated or bit-flipped file fails loudly instead of serving a
// silently wrong graph.
package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"
)

const (
	blockMagic   = 0x4b425050 // "PPBK" little-endian
	blockVersion = 1

	blockFlagWeighted = 1 << 0
	blockFlagDirected = 1 << 1

	blockHeaderBytes = 4*4 + 3*8
)

// DefaultBlockVerts is the default vertices-per-block: 4096 vertices
// keep a block's edge segment around a few hundred KiB on the suite
// graphs — large enough for sequential readahead to win, small enough
// that a frontier summary bit per block still skips real work.
const DefaultBlockVerts = 4096

// BlockCSR is an open block-format graph: the O(n) vertex state
// (offsets, out-degrees, block index) lives in memory, the O(m) edge
// segments stay on disk behind either a read-only mmap or a buffered
// ReadAt cursor.
type BlockCSR struct {
	NumV int32
	// BlockVerts is the vertices-per-block of the file, a multiple of 64.
	BlockVerts int32
	// Offsets is the pull-view CSR offset array (len NumV+1).
	Offsets []int64
	// OutDeg is the out-degree sidecar of a directed file, nil otherwise.
	OutDeg []int64

	adjCount int64
	blockOff []int64 // len numBlocks+1, absolute byte offsets
	weighted bool
	directed bool

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

// Mmapped reports whether the edge segments are served by mmap (false:
// the buffered ReadAt fallback).
func (g *BlockCSR) Mmapped() bool { return g.data != nil }

// NumBlocks returns the number of vertex blocks.
func (g *BlockCSR) NumBlocks() int { return len(g.blockOff) - 1 }

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
// it at one block's segment (a zero-copy sub-slice under mmap, a reused
// read buffer otherwise), and Row serves adjacency slices out of it.
// A cursor is single-goroutine; kernels keep one per worker, hoisted
// outside their round loops so steady-state iteration allocates nothing
// (the fallback buffer grows to the largest block once and is reused).
type BlockCursor struct {
	g     *BlockCSR
	block int
	seg   []byte
	base  int64 // Offsets[lo] of the loaded block
	buf   []byte
	vbuf  []V       // big-endian-host decode scratch
	wbuf  []float32 // big-endian-host decode scratch
}

// Load points cur at block bi, reading the segment from disk in
// buffered mode (a no-op when the block is already loaded).
func (g *BlockCSR) Load(bi int, cur *BlockCursor) error {
	if cur.g == g && cur.block == bi && cur.seg != nil {
		return nil
	}
	start, end := g.blockOff[bi], g.blockOff[bi+1]
	if g.data != nil {
		cur.seg = g.data[start:end]
	} else {
		need := int(end - start)
		if cap(cur.buf) < need {
			cur.buf = make([]byte, need)
		}
		b := cur.buf[:need]
		if _, err := g.f.ReadAt(b, start); err != nil {
			cur.seg = nil
			return fmt.Errorf("graph: block %d: reading segment: %w", bi, err)
		}
		cur.seg = b
	}
	cur.g = g
	cur.block = bi
	lo, _ := g.BlockRange(bi)
	cur.base = g.Offsets[lo]
	return nil
}

// Row returns the adjacency of v, which must lie in the loaded block.
// Under mmap (or the reused read buffer) on a little-endian host this
// is a zero-copy view of the segment bytes.
func (cur *BlockCursor) Row(v V) []V {
	s := (cur.g.Offsets[v] - cur.base) * 4
	e := (cur.g.Offsets[v+1] - cur.base) * 4
	return castVs(cur.seg[s:e], &cur.vbuf)
}

// hostLittleEndian is checked once: the zero-copy segment casts are
// only valid when the host byte order matches the file's.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// castVs reinterprets little-endian segment bytes as vertex ids,
// decoding through scratch on a big-endian host.
func castVs(b []byte, scratch *[]V) []V {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*V)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	n := len(b) / 4
	if cap(*scratch) < n {
		*scratch = make([]V, n)
	}
	out := (*scratch)[:n]
	for i := range out {
		out[i] = V(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// castF32s is castVs for the weight halves of weighted segments.
func castF32s(b []byte, scratch *[]float32) []float32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	n := len(b) / 4
	if cap(*scratch) < n {
		*scratch = make([]float32, n)
	}
	out := (*scratch)[:n]
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// VisitBlocks streams every block's adjacency (and weights, when
// present) in storage order through one buffered cursor — the content-
// identity digest walks the graph this way without materializing it.
func (g *BlockCSR) VisitBlocks(fn func(adj []V, weights []float32) error) error {
	var cur BlockCursor
	for bi := 0; bi < g.NumBlocks(); bi++ {
		if err := g.Load(bi, &cur); err != nil {
			return err
		}
		lo, hi := g.BlockRange(bi)
		cnt := (g.Offsets[hi] - g.Offsets[lo]) * 4
		adj := castVs(cur.seg[:cnt], &cur.vbuf)
		var ws []float32
		if g.weighted {
			ws = castF32s(cur.seg[cnt:cnt*2], &cur.wbuf)
		}
		if err := fn(adj, ws); err != nil {
			return err
		}
	}
	return nil
}

// ---- writing ----

// WriteBlock serializes pull (the pull-view CSR: the graph itself for
// undirected inputs, the transpose for directed ones) in the block
// format. outDeg must be the out-degree array for directed graphs and
// nil for undirected ones; blockVerts ≤ 0 selects DefaultBlockVerts,
// other values are rounded up to a multiple of 64 (the frontier-bitmap
// word size, so block boundaries never split a bitmap word).
func WriteBlock(w io.Writer, pull *CSR, outDeg []int64, blockVerts int) error {
	if outDeg != nil && len(outDeg) != pull.N() {
		return fmt.Errorf("graph: WriteBlock: outDeg length %d, want %d", len(outDeg), pull.N())
	}
	bv := roundBlockVerts(blockVerts)
	n := pull.N()
	numBlocks := (n + bv - 1) / bv
	if n == 0 {
		numBlocks = 0
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var flags uint32
	if pull.Weighted() {
		flags |= blockFlagWeighted
	}
	if outDeg != nil {
		flags |= blockFlagDirected
	}
	var u32 [4]byte
	var u64 [8]byte
	put32 := func(x uint32) error {
		binary.LittleEndian.PutUint32(u32[:], x)
		_, err := bw.Write(u32[:])
		return err
	}
	put64 := func(x uint64) error {
		binary.LittleEndian.PutUint64(u64[:], x)
		_, err := bw.Write(u64[:])
		return err
	}
	for _, x := range []uint32{blockMagic, blockVersion, flags, uint32(bv)} {
		if err := put32(x); err != nil {
			return err
		}
	}
	for _, x := range []uint64{uint64(n), uint64(pull.M()), uint64(numBlocks)} {
		if err := put64(x); err != nil {
			return err
		}
	}
	for _, o := range pull.Offsets {
		if err := put64(uint64(o)); err != nil {
			return err
		}
	}
	for _, d := range outDeg {
		if err := put64(uint64(d)); err != nil {
			return err
		}
	}
	// The block index, then the segments it points at.
	blockOff := blockOffsets(pull.Offsets, n, bv, numBlocks, outDeg != nil, pull.Weighted())
	for _, o := range blockOff {
		if err := put64(uint64(o)); err != nil {
			return err
		}
	}
	var pad [8]byte
	for bi := 0; bi < numBlocks; bi++ {
		lo := bi * bv
		hi := lo + bv
		if hi > n {
			hi = n
		}
		rows := pull.Adj[pull.Offsets[lo]:pull.Offsets[hi]]
		for _, v := range rows {
			if err := put32(uint32(v)); err != nil {
				return err
			}
		}
		segBytes := int64(len(rows)) * 4
		if pull.Weighted() {
			for _, f := range pull.Weights[pull.Offsets[lo]:pull.Offsets[hi]] {
				if err := put32(math.Float32bits(f)); err != nil {
					return err
				}
			}
			segBytes *= 2
		}
		if rem := segBytes & 7; rem != 0 {
			if _, err := bw.Write(pad[:8-rem]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteBlockFile writes the block format to path atomically (temp file
// in the same directory + rename), the DiskStore idiom: a crash mid-
// write leaves no torn file behind.
func WriteBlockFile(path string, pull *CSR, outDeg []int64, blockVerts int) error {
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, "."+base+"-*")
	if err != nil {
		return fmt.Errorf("graph: WriteBlockFile: %w", err)
	}
	if err := WriteBlock(tmp, pull, outDeg, blockVerts); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("graph: WriteBlockFile: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graph: WriteBlockFile: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("graph: WriteBlockFile: %w", err)
	}
	return nil
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1], path[i+1:]
		}
	}
	return ".", path
}

func roundBlockVerts(bv int) int {
	if bv <= 0 {
		return DefaultBlockVerts
	}
	return (bv + 63) &^ 63
}

// blockOffsets computes the absolute byte offset of every block segment
// (plus the end-of-file sentinel) from the row offsets — the ground
// truth the stored index is validated against at open.
func blockOffsets(offsets []int64, n, bv, numBlocks int, directed, weighted bool) []int64 {
	headBytes := int64(blockHeaderBytes) + int64(n+1)*8 + int64(numBlocks+1)*8
	if directed {
		headBytes += int64(n) * 8
	}
	out := make([]int64, numBlocks+1)
	pos := headBytes
	for bi := 0; bi < numBlocks; bi++ {
		out[bi] = pos
		lo := bi * bv
		hi := lo + bv
		if hi > n {
			hi = n
		}
		segBytes := (offsets[hi] - offsets[lo]) * 4
		if weighted {
			segBytes *= 2
		}
		pos += (segBytes + 7) &^ 7
	}
	out[numBlocks] = pos
	return out
}

// ---- opening ----

// BlockOpt configures OpenBlockCSR.
type BlockOpt func(*blockOpenCfg)

type blockOpenCfg struct {
	buffered bool
}

// Buffered forces the portable ReadAt reader even where mmap is
// available: edge segments are then read into fixed per-cursor buffers,
// so the process's resident set holds at most one block per worker —
// the mode the out-of-core RSS evidence runs in.
func Buffered() BlockOpt { return func(c *blockOpenCfg) { c.buffered = true } }

// OpenBlockCSR opens a block-format file, loading the O(n) vertex state
// into memory and validating the header, the offsets, and the stored
// block index against each other — corruption and truncation fail here,
// loudly, not inside a kernel.
func OpenBlockCSR(path string, opts ...BlockOpt) (*BlockCSR, error) {
	var cfg blockOpenCfg
	for _, o := range opts {
		o(&cfg)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: open block file: %w", err)
	}
	g, err := readBlockHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	g.f = f
	if !cfg.buffered {
		fileSize := g.blockOff[g.NumBlocks()]
		if data, merr := mmapFile(f, fileSize); merr == nil {
			g.data = data
		}
		// mmap failure (or an unsupported platform) silently degrades to
		// the buffered reader: same results, bounded buffers.
	}
	return g, nil
}

func readBlockHeader(f *os.File, path string) (*BlockCSR, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("graph: block file %s: %w", path, err)
	}
	fileSize := st.Size()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [blockHeaderBytes]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("graph: block file %s: truncated header: %w", path, err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	version := binary.LittleEndian.Uint32(hdr[4:])
	flags := binary.LittleEndian.Uint32(hdr[8:])
	bv := binary.LittleEndian.Uint32(hdr[12:])
	n := binary.LittleEndian.Uint64(hdr[16:])
	adjCount := binary.LittleEndian.Uint64(hdr[24:])
	numBlocks := binary.LittleEndian.Uint64(hdr[32:])
	if magic != blockMagic {
		return nil, fmt.Errorf("graph: block file %s: bad magic %#x (not a pushpull block file)", path, magic)
	}
	if version != blockVersion {
		return nil, fmt.Errorf("graph: block file %s: version %d, this build reads %d", path, version, blockVersion)
	}
	if flags&^uint32(blockFlagWeighted|blockFlagDirected) != 0 {
		return nil, fmt.Errorf("graph: block file %s: unknown flag bits %#x", path, flags)
	}
	if bv == 0 || bv%64 != 0 {
		return nil, fmt.Errorf("graph: block file %s: block size %d is not a positive multiple of 64", path, bv)
	}
	if n > uint64(math.MaxInt32) {
		return nil, fmt.Errorf("graph: block file %s: vertex count %d exceeds int32", path, n)
	}
	wantBlocks := (n + uint64(bv) - 1) / uint64(bv)
	if numBlocks != wantBlocks {
		return nil, fmt.Errorf("graph: block file %s: %d blocks recorded, %d vertices / %d need %d", path, numBlocks, n, bv, wantBlocks)
	}
	g := &BlockCSR{
		NumV:       int32(n),
		BlockVerts: int32(bv),
		adjCount:   int64(adjCount),
		weighted:   flags&blockFlagWeighted != 0,
		directed:   flags&blockFlagDirected != 0,
	}
	read64s := func(dst []int64, what string) error {
		var b [8]byte
		for i := range dst {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return fmt.Errorf("graph: block file %s: truncated %s: %w", path, what, err)
			}
			dst[i] = int64(binary.LittleEndian.Uint64(b[:]))
		}
		return nil
	}
	g.Offsets = make([]int64, n+1)
	if err := read64s(g.Offsets, "offsets"); err != nil {
		return nil, err
	}
	if g.Offsets[0] != 0 || g.Offsets[n] != g.adjCount {
		return nil, fmt.Errorf("graph: block file %s: offset endpoints [%d, %d] disagree with arc count %d", path, g.Offsets[0], g.Offsets[n], g.adjCount)
	}
	for i := uint64(0); i < n; i++ {
		if g.Offsets[i] > g.Offsets[i+1] {
			return nil, fmt.Errorf("graph: block file %s: offsets not monotone at vertex %d", path, i)
		}
	}
	if g.directed {
		g.OutDeg = make([]int64, n)
		if err := read64s(g.OutDeg, "out-degrees"); err != nil {
			return nil, err
		}
	}
	g.blockOff = make([]int64, numBlocks+1)
	if err := read64s(g.blockOff, "block index"); err != nil {
		return nil, err
	}
	want := blockOffsets(g.Offsets, int(n), int(bv), int(numBlocks), g.directed, g.weighted)
	for i, o := range g.blockOff {
		if o != want[i] {
			return nil, fmt.Errorf("graph: block file %s: block index entry %d is %d, offsets imply %d (corrupt or truncated file)", path, i, o, want[i])
		}
	}
	if fileSize < g.blockOff[numBlocks] {
		return nil, fmt.Errorf("graph: block file %s: %d bytes on disk, block index needs %d (truncated file)", path, fileSize, g.blockOff[numBlocks])
	}
	return g, nil
}
