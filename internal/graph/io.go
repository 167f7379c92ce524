package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unsafe"
)

// The text edge-list format. The first line is the header
// "# pushpull n m weighted directed"; every other line is an edge
// "u v [w]", a comment starting with '#', or blank.
//   - Fields are separated by runs of the six ASCII whitespace bytes
//     (space, \t, \n, \v, \f, \r). Any other byte, a Unicode space such
//     as U+00A0 included, belongs to a field, so a line split by one
//     fails to parse and is refused with its line number.
//   - Lines end in "\n" or "\r\n"; a line may be at most lineMax bytes,
//     its newline included, and a longer one fails with bufio.ErrTooLong.
//   - Vertex ids are decimal integers in [0, n). A weight is whatever
//     strconv.ParseFloat reads as a float32, except NaN, which is refused.
//     +Inf and 0 are weights like any other; a weightless line in a
//     weighted list reads as weight 1.
//
// Reader and writer allocate per call, not per line or per arc.

// lineMax is the longest line ReadEdgeList accepts, its newline included.
const lineMax = 1 << 20

// WriteEdgeList serializes g as a text edge list: a header line
// "# pushpull n m weighted directed" followed by edge lines "u v [w]".
// For undirected graphs each edge is emitted once (u ≤ v) and m is the
// undirected edge count; for directed graphs every arc is emitted and m
// is the arc count. Directedness is detected from the adjacency itself
// (weight-aware symmetry check), so a directed or asymmetrically-weighted
// graph survives the round trip through ReadEdgeList; callers that know
// the kind can use WriteEdgeListKind and skip the detection.
func WriteEdgeList(w io.Writer, g *CSR) error {
	return WriteEdgeListKind(w, g, !symmetricWithWeights(g))
}

// WriteEdgeListKind is WriteEdgeList with the directedness stated by the
// caller instead of detected. Writing a non-symmetric graph as undirected
// loses the asymmetric arcs; the flag is recorded in the header either
// way so ReadEdgeListKind restores the kind. Ids print as fmt's %d and
// weights as its %g of a float32, through one reused line buffer.
func WriteEdgeListKind(w io.Writer, g *CSR, directed bool) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	m := g.UndirectedM()
	if directed {
		m = g.M()
	}
	line := append(make([]byte, 0, 64), "# pushpull "...)
	line = strconv.AppendInt(line, int64(g.N()), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, m, 10)
	line = append(line, ' ', flag(g.Weighted()), ' ', flag(directed), '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if !directed && u < v {
				continue // emit each undirected edge once
			}
			line = strconv.AppendInt(line[:0], int64(v), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(u), 10)
			if ws != nil {
				line = append(line, ' ')
				line = strconv.AppendFloat(line, float64(ws[i]), 'g', -1, 32)
			}
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// flag is a header flag's digit.
func flag(on bool) byte {
	if on {
		return '1'
	}
	return '0'
}

// ReadEdgeList parses the format written by WriteEdgeList, restoring the
// recorded directedness and weights. Lines starting with '#' other than
// the header are ignored, so plain SNAP-style edge lists load too as long
// as the first line declares the vertex count; headers without the
// directed flag (the pre-kind format) read as undirected.
func ReadEdgeList(r io.Reader) (*CSR, error) {
	g, _, err := ReadEdgeListKind(r)
	return g, err
}

// ReadEdgeListKind is ReadEdgeList, additionally reporting whether the
// header declared the graph directed.
func ReadEdgeListKind(r io.Reader) (*CSR, bool, error) {
	br := bufio.NewReaderSize(r, lineMax)
	text, err := readLine(br)
	if err == io.EOF {
		return nil, false, fmt.Errorf("graph: empty input")
	}
	if err != nil {
		return nil, false, err
	}
	var hdr [6][]byte
	header := hdr[:splitFields(text, hdr[:])]
	if len(header) < 4 || string(header[0]) != "#" || string(header[1]) != "pushpull" {
		return nil, false, fmt.Errorf("graph: bad header %q", text)
	}
	n, err := strconv.Atoi(aliasString(header[2]))
	if err != nil {
		return nil, false, fmt.Errorf("graph: line 1: bad vertex count: %v", err)
	}
	if n < 0 || n > math.MaxInt32 {
		return nil, false, fmt.Errorf("graph: line 1: vertex count %d out of range [0,%d]", n, math.MaxInt32)
	}
	directed := len(header) >= 6 && string(header[5]) == "1"
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	// A weighted graph stays weighted when it has no edge left to say so
	// (its only edges were self-loops, which the builder drops).
	b.weighted = len(header) >= 5 && string(header[4]) == "1"
	var f [3][]byte
	for line := 2; ; line++ {
		text, err := readLine(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, err
		}
		fields := f[:splitFields(text, f[:])]
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if len(fields) < 2 {
			return nil, false, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, bytes.TrimSpace(text))
		}
		var ends [2]V
		for i, field := range fields[:2] {
			x, err := strconv.Atoi(aliasString(field))
			if err != nil {
				return nil, false, fmt.Errorf("graph: line %d: %v", line, err)
			}
			// Range-checked before the conversion, which would wrap.
			if x < 0 || x >= n {
				return nil, false, fmt.Errorf("graph: line %d: vertex %d out of range [0,%d)", line, x, n)
			}
			ends[i] = V(x)
		}
		if len(fields) < 3 {
			b.AddEdge(ends[0], ends[1])
			continue
		}
		w, err := strconv.ParseFloat(aliasString(fields[2]), 32)
		if err != nil {
			return nil, false, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if math.IsNaN(w) {
			return nil, false, fmt.Errorf("graph: line %d: weight is NaN", line)
		}
		b.AddEdgeW(ends[0], ends[1], float32(w))
	}
	g, err := b.Build()
	if err != nil {
		return nil, false, err
	}
	return g, directed, nil
}

// readLine returns br's next line without its "\n" and one '\r' before
// it, as bufio.ScanLines cuts lines, and io.EOF once no byte is left. The
// line aliases br's buffer until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return nil, bufio.ErrTooLong
	case err == io.EOF && len(line) > 0:
		// The last line has no newline.
	case err != nil:
		return nil, err
	default:
		line = line[:len(line)-1]
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// isSpace reports whether c is one of the six ASCII whitespace bytes
// strings.Fields splits ASCII text on: '\t', '\n', '\v', '\f', '\r', ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// splitFields stores the first len(out) whitespace-separated fields of
// line in out, in place, and returns how many it stored.
func splitFields(line []byte, out [][]byte) int {
	k, i := 0, 0
	for k < len(out) {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		out[k] = line[i:j]
		k++
		i = j
	}
	return k
}

// aliasString views f as a string without copying it. The string is
// only handed to strconv, whose results and errors keep no reference to
// it (a NumError holds a clone).
func aliasString(f []byte) string { return unsafe.String(unsafe.SliceData(f), len(f)) }

// symmetricWithWeights reports whether every stored arc has its reverse
// with an equal weight — i.e. whether the CSR is losslessly representable
// as an undirected (weighted) edge list. It strengthens IsSymmetric by
// also comparing weights, because a symmetric adjacency with asymmetric
// weights must still be serialized arc by arc.
func symmetricWithWeights(g *CSR) bool {
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			j := arcIndex(g, u, v)
			if j < 0 {
				return false
			}
			if ws != nil && ws[i] != g.Weights[j] {
				return false
			}
		}
	}
	return true
}

// arcIndex returns the position of arc (u, v) in g.Adj, or -1 when the
// arc is absent, via binary search over u's sorted adjacency.
func arcIndex(g *CSR, u, v V) int64 {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	if i < len(adj) && adj[i] == v {
		return g.Offsets[u] + int64(i)
	}
	return -1
}
