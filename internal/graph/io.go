package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

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
// way so ReadEdgeListKind restores the kind.
func WriteEdgeListKind(w io.Writer, g *CSR, directed bool) error {
	bw := bufio.NewWriter(w)
	weighted := 0
	if g.Weighted() {
		weighted = 1
	}
	dirFlag := 0
	m := g.UndirectedM()
	if directed {
		dirFlag = 1
		m = g.M()
	}
	if _, err := fmt.Fprintf(bw, "# pushpull %d %d %d %d\n", g.N(), m, weighted, dirFlag); err != nil {
		return err
	}
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if !directed && u < v {
				continue // emit each undirected edge once
			}
			var err error
			if ws != nil {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", v, u, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, false, fmt.Errorf("graph: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 4 || header[0] != "#" || header[1] != "pushpull" {
		return nil, false, fmt.Errorf("graph: bad header %q", sc.Text())
	}
	n, err := strconv.Atoi(header[2])
	if err != nil {
		return nil, false, fmt.Errorf("graph: line 1: bad vertex count: %v", err)
	}
	if n < 0 || n > math.MaxInt32 {
		return nil, false, fmt.Errorf("graph: line 1: vertex count %d out of range [0,%d]", n, math.MaxInt32)
	}
	directed := len(header) >= 6 && header[5] == "1"
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	// A weighted graph stays weighted when it has no edge left to say so
	// (its only edges were self-loops, which the builder drops).
	b.weighted = len(header) >= 5 && header[4] == "1"
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, false, fmt.Errorf("graph: line %d: want 'u v [w]', got %q", line, text)
		}
		var ends [2]V
		for i, field := range fields[:2] {
			x, err := strconv.Atoi(field)
			if err != nil {
				return nil, false, fmt.Errorf("graph: line %d: %v", line, err)
			}
			// Range-checked before the conversion, which would wrap.
			if x < 0 || x >= n {
				return nil, false, fmt.Errorf("graph: line %d: vertex %d out of range [0,%d)", line, x, n)
			}
			ends[i] = V(x)
		}
		u, v := ends[0], ends[1]
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, false, fmt.Errorf("graph: line %d: %v", line, err)
			}
			b.AddEdgeW(u, v, float32(w))
		} else {
			b.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	g, err := b.Build()
	if err != nil {
		return nil, false, err
	}
	return g, directed, nil
}

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
