package graph

// The binary CSR format: a graph as its in-memory arrays, for the hop
// from a cluster router to its workers and for a DiskStore's files.
// Writing it is three copies, and reading it is three reads into arrays
// of the final size, so neither side formats or parses text.
//
// The body is little-endian throughout:
//
//	header   magic "PPCS", version, flags, n (u32 each); m (u64)
//	offsets  (n+1)×i64
//	adj      m×i32
//	weights  m×f32, weighted graphs only
//
// Flag bit 0 marks a weighted graph and bit 1 a directed one; m counts
// stored arcs, both directions of an undirected edge included. A body
// holds exactly what ReadEdgeListKind could have produced: a CSR that
// passes Check, every row strictly increasing and free of self-loops, no
// NaN weight, and, when undirected, a CSR equal to its own transpose,
// weights included. The reader refuses anything else, so a body from
// any sender gives the graph and content ID the text would have given;
// the writer refuses it too, so no file it writes fails to read back.
//
// Flag bit 2 marks a graph's pull view, the file an out-of-core handle
// opens (OpenBlockCSR, WritePullView): the arrays are then the in-edge
// CSR, and a directed one has an n×i64 out-degree section after the
// weights. ReadCSR refuses such a body with ErrPullView.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"
)

const (
	csrMagic   = 0x53435050 // "PPCS" little-endian
	csrVersion = 1

	csrFlagWeighted = 1 << 0
	csrFlagDirected = 1 << 1
	csrFlagPullView = 1 << 2

	csrHeaderBytes = 4*4 + 8
)

// ErrPullView is ReadCSR's refusal of a body whose header marks a pull
// view, which only an out-of-core handle opens.
var ErrPullView = errors.New("graph: csr: the body is a pull view, which only an out-of-core handle opens")

// csrBytes is the size of the binary CSR body of a graph with n vertices
// and m arcs.
func csrBytes(n int, m int64, weighted bool) int64 {
	arc := int64(4)
	if weighted {
		arc = 8
	}
	return csrHeaderBytes + 8*(int64(n)+1) + arc*m
}

// WriteCSR writes g in the binary CSR format, with the kind the header
// records. It refuses a graph ReadCSR would refuse. A w with a Grow
// method, such as a *bytes.Buffer, is grown to the body's size first.
func WriteCSR(w io.Writer, g *CSR, directed bool) error {
	if err := checkSimple(g, directed); err != nil {
		return err
	}
	var flags uint32
	if directed {
		flags |= csrFlagDirected
	}
	return writeCSR(w, g, flags, nil)
}

// writeCSR writes g's header, with flags and g's weighted bit, and its
// sections, then outDeg's.
func writeCSR(w io.Writer, g *CSR, flags uint32, outDeg []int64) error {
	if g.Weighted() {
		flags |= csrFlagWeighted
	}
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(int(csrBytes(g.N(), g.M(), g.Weighted()) + 8*int64(len(outDeg))))
	}
	hdr := csrHeader(flags, uint32(g.NumV), uint64(g.M()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeLE(w, rawBytes(g.Offsets), 8); err != nil {
		return err
	}
	if err := writeLE(w, rawBytes(g.Adj), 4); err != nil {
		return err
	}
	if err := writeLE(w, rawBytes(g.Weights), 4); err != nil {
		return err
	}
	return writeLE(w, rawBytes(outDeg), 8)
}

// WritePullView writes in, the pull view of a graph, as a binary CSR
// with the pull-view flag: for an undirected graph in is the graph itself
// and outDeg nil; for a directed one in is the transpose and outDeg the
// graph's out-degrees, which follow the weights. It checks only CSR.Check
// and outDeg's length: in is a view the tree built, not a sender's body.
func WritePullView(w io.Writer, in *CSR, outDeg []int64) error {
	if err := in.Check(); err != nil {
		return err
	}
	flags := uint32(csrFlagPullView)
	if outDeg != nil {
		if len(outDeg) != in.N() {
			return fmt.Errorf("graph: pull view: %d out-degrees for %d vertices", len(outDeg), in.N())
		}
		flags |= csrFlagDirected
	}
	return writeCSR(w, in, flags, outDeg)
}

// csrHeader encodes a binary CSR header.
func csrHeader(flags, n uint32, m uint64) [csrHeaderBytes]byte {
	var hdr [csrHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], csrMagic)
	binary.LittleEndian.PutUint32(hdr[4:], csrVersion)
	binary.LittleEndian.PutUint32(hdr[8:], flags)
	binary.LittleEndian.PutUint32(hdr[12:], n)
	binary.LittleEndian.PutUint64(hdr[16:], m)
	return hdr
}

// readCSRHeader reads a binary CSR header and checks what every reader
// checks: the magic, the version, the flag bits and the vertex count.
func readCSRHeader(r io.Reader) (flags, n uint32, m uint64, err error) {
	var hdr [csrHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("truncated header: %w", err)
	}
	magic, version := binary.LittleEndian.Uint32(hdr[0:]), binary.LittleEndian.Uint32(hdr[4:])
	flags, n, m = binary.LittleEndian.Uint32(hdr[8:]), binary.LittleEndian.Uint32(hdr[12:]), binary.LittleEndian.Uint64(hdr[16:])
	switch unknown := flags &^ (csrFlagWeighted | csrFlagDirected | csrFlagPullView); {
	case magic != csrMagic:
		err = fmt.Errorf("bad magic %#x (not a pushpull binary CSR)", magic)
	case version != csrVersion:
		err = fmt.Errorf("version %d, this build reads %d", version, csrVersion)
	case unknown != 0:
		err = fmt.Errorf("unknown flag bits %#x", unknown)
	case n > math.MaxInt32:
		err = fmt.Errorf("vertex count %d exceeds %d", n, math.MaxInt32)
	}
	return flags, n, m, err
}

// ReadCSR reads a graph in the binary CSR format and reports whether the
// header declared it directed. limit is the most bytes the caller lets
// the body take: a header whose sections need more is refused before
// anything is allocated. Every error names the fault.
func ReadCSR(r io.Reader, limit int64) (*CSR, bool, error) {
	flags, n, m, err := readCSRHeader(r)
	switch {
	case err != nil:
		return nil, false, fmt.Errorf("graph: csr: %w", err)
	case flags&csrFlagPullView != 0:
		return nil, false, ErrPullView
	}
	weighted, directed := flags&csrFlagWeighted != 0, flags&csrFlagDirected != 0
	// The offsets take at most 2^34 bytes, so room cannot overflow, and m
	// is compared by a division before anything multiplies it.
	arc := uint64(4)
	if weighted {
		arc = 8
	}
	if room := limit - csrBytes(int(n), 0, false); room < 0 || m > uint64(room)/arc {
		return nil, false, fmt.Errorf("%w: csr: %d vertices and %d arcs do not fit in the %d-byte limit", ErrTooLarge, n, m, limit)
	}
	g := &CSR{NumV: V(n), Offsets: make([]int64, int(n)+1), Adj: make([]V, m)}
	if weighted {
		g.Weights = make([]float32, m)
	}
	if err := readLE(r, rawBytes(g.Offsets), 8, "offsets"); err != nil {
		return nil, false, err
	}
	if err := readLE(r, rawBytes(g.Adj), 4, "adjacency"); err != nil {
		return nil, false, err
	}
	if err := readLE(r, rawBytes(g.Weights), 4, "weights"); err != nil {
		return nil, false, err
	}
	var extra [1]byte
	switch k, err := io.ReadFull(r, extra[:]); {
	case k > 0:
		return nil, false, fmt.Errorf("graph: csr: trailing bytes after the last section")
	case err != io.EOF:
		return nil, false, fmt.Errorf("graph: csr: reading past the last section: %w", err)
	}
	if err := checkSimple(g, directed); err != nil {
		return nil, false, err
	}
	return g, directed, nil
}

// checkSimple reports the first reason g is not a graph ReadEdgeListKind
// could have produced with the given kind.
func checkSimple(g *CSR, directed bool) error {
	if err := g.Check(); err != nil {
		return err
	}
	for v := V(0); v < g.NumV; v++ {
		row := g.Neighbors(v)
		for i, u := range row {
			if u == v {
				return fmt.Errorf("graph: vertex %d has a self-loop", v)
			}
			if i > 0 && row[i-1] >= u {
				return fmt.Errorf("graph: row %d is not strictly increasing (%d after %d)", v, u, row[i-1])
			}
		}
	}
	for i, w := range g.Weights {
		if w != w {
			return fmt.Errorf("graph: arc %d has a NaN weight", i)
		}
	}
	if directed {
		return nil
	}
	// An undirected graph must equal its transpose. Walking the sources in
	// increasing order meets the arcs into u in the order u's row lists
	// them when it does, so next[u] is where the reverse of the next arc
	// into u sits. Every row has as many slots as the walk advances it by,
	// so no row is left with a slot unmatched.
	next := make([]int64, g.NumV)
	copy(next, g.Offsets)
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			j := next[u]
			if j == g.Offsets[u+1] || g.Adj[j] != v {
				return fmt.Errorf("graph: undirected graph is not symmetric: arc %d→%d has no reverse", v, u)
			}
			if ws != nil && math.Float32bits(ws[i]) != math.Float32bits(g.Weights[j]) {
				return fmt.Errorf("graph: undirected graph is not symmetric: arc %d→%d weighs %g, its reverse %g", v, u, ws[i], g.Weights[j])
			}
			next[u]++
		}
	}
	return nil
}

// hostLittleEndian is checked once: the zero-copy casts of file bytes
// are only valid when the host byte order matches the file's.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// rawBytes views an array's memory as bytes, in host order.
func rawBytes[T int64 | int32 | float32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// writeLE writes b, an array of size-byte elements in host order, as
// little-endian elements: as it is on a little-endian host, through a
// swapping buffer on a big-endian one.
func writeLE(w io.Writer, b []byte, size int) error {
	if hostLittleEndian {
		_, err := w.Write(b)
		return err
	}
	buf := make([]byte, min(len(b), 64<<10))
	for len(b) > 0 {
		k := copy(buf, b)
		swapBytes(buf[:k], size)
		if _, err := w.Write(buf[:k]); err != nil {
			return err
		}
		b = b[k:]
	}
	return nil
}

// readLE fills b, an array of size-byte elements, from the little-endian
// section named section, and puts the elements in host order.
func readLE(r io.Reader, b []byte, size int, section string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || err == io.EOF {
			return fmt.Errorf("graph: csr: truncated %s: want %d bytes", section, len(b))
		}
		return fmt.Errorf("graph: csr: reading %s: %w", section, err)
	}
	if !hostLittleEndian {
		swapBytes(b, size)
	}
	return nil
}

// swapBytes reverses the byte order of every size-byte element of b.
func swapBytes(b []byte, size int) {
	for i := 0; i+size <= len(b); i += size {
		slices.Reverse(b[i : i+size])
	}
}
