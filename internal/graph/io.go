package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
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
//   - A line is scanned once, left to right. A plain field converts
//     inline: an id of up to ten decimal digits, a weight of digits with
//     at most one '.' between more digits (see scanWeight for its
//     bounds). Any other field goes to strconv, whose values and errors
//     the reader keeps, so the inline conversions change neither.
//
// The writer allocates per call, and the reader per call and per block of
// about blockSize bytes, not per line or per arc.

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
//
// The input is cut into blocks of whole lines, about blockSize bytes
// each, and the blocks are parsed on GOMAXPROCS goroutines, each into
// its own edge slice. The first refusal in stream order is reported, with
// its line number in the input, so the result, the graph or the error, is
// the one a line-by-line read gives.
func ReadEdgeListKind(r io.Reader) (*CSR, bool, error) {
	return readEdgeList(r, blockSize, math.MaxInt64)
}

// ReadEdgeListLimit is ReadEdgeListKind for a reader that may take at
// most limit bytes of memory for the graph: a header whose vertex count
// alone needs more (vertexBytes a vertex) is refused with ErrTooLarge
// before anything is allocated for it. The body's own bytes are the
// caller's to bound.
func ReadEdgeListLimit(r io.Reader, limit int64) (*CSR, bool, error) {
	return readEdgeList(r, blockSize, limit)
}

// ErrTooLarge: a graph's header, an edge list's or a binary CSR's,
// declares more than the reader's limit has room for.
var ErrTooLarge = errors.New("graph: header past the limit")

// vertexBytes is what reading a graph costs per vertex its header
// declares, edges aside: the offsets and the Builder's cursor.
const vertexBytes = 16

// blockSize is the most a block holds, unless one line alone is longer:
// the reader cuts a block at its last newline once it has read this many
// bytes.
const blockSize = 1 << 20

// readEdgeList is ReadEdgeListLimit with blocks cut at size bytes.
func readEdgeList(r io.Reader, size int, limit int64) (*CSR, bool, error) {
	s := splitter{r: r, size: size}
	first := s.next(make([]byte, 0, size))
	if len(first.text) == 0 {
		if s.err == io.EOF {
			return nil, false, fmt.Errorf("graph: empty input")
		}
		return nil, false, s.err
	}
	text, rest, err := cutLine(first.text)
	if err != nil {
		return nil, false, err
	}
	first.text = rest
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
	if int64(n) > limit/vertexBytes {
		return nil, false, fmt.Errorf("%w: line 1: %d vertices need %d bytes, more than %d", ErrTooLarge, n, int64(n)*vertexBytes, limit)
	}
	directed := len(header) >= 6 && string(header[5]) == "1"
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	// A weighted graph stays weighted when it has no edge left to say so
	// (its only edges were self-loops, which the builder drops).
	b.weighted = len(header) >= 5 && string(header[4]) == "1"

	blocks, err := parseBlocks(&s, first, n)
	if err != nil {
		return nil, false, err
	}
	b.blocks = make([][]Edge, len(blocks))
	for i, blk := range blocks {
		b.blocks[i] = blk.edges
		b.weighted = b.weighted || blk.weighted
	}
	g, err := b.Build()
	if err != nil {
		return nil, false, err
	}
	return g, directed, nil
}

// A block is a run of whole lines of the input and what one parser made
// of them: while it is parsed, the parser alone writes its fields.
type block struct {
	buf      []byte // the block's bytes, a buffer recycled once parsed
	text     []byte // the lines to parse: buf, less the header in the first block
	edges    []Edge
	weighted bool // some line carried a weight
	lines    int  // lines parsed: all of them, or those before the refusal
	err      error
}

// parseBlocks parses first and the blocks s cuts after it, in stream
// order, and returns them, or the first refusal in stream order. With
// GOMAXPROCS parsers, at most two blocks per parser are in flight, and a
// parsed block's buffer holds the next one. A single block, or a single
// parser, is parsed on the calling goroutine. No goroutine outlives the
// call.
func parseBlocks(s *splitter, first *block, n int) ([]*block, error) {
	parsers := runtime.GOMAXPROCS(0)
	var (
		blocks = []*block{first}
		work   chan *block
		parsed chan *block // sized to every buffer, so a parser never waits to hand one back
		wg     sync.WaitGroup
		made   = 1
	)
	for cur := first; ; {
		if work == nil && (s.err != nil || parsers == 1) {
			cur.parse(n)
		} else {
			if work == nil {
				work, parsed = make(chan *block), make(chan *block, 2*parsers)
				wg.Add(parsers)
				for range parsers {
					go func() {
						defer wg.Done()
						for blk := range work {
							blk.parse(n)
							parsed <- blk
						}
					}()
				}
			}
			work <- cur
		}
		if s.err != nil {
			break
		}
		// The buffer for the next block: the one just parsed inline, a new
		// one until there are two per parser, then a parsed block's. A
		// refusal seen on the way stops the read.
		var done *block
		switch {
		case work == nil:
			done = cur
		case made < 2*parsers:
			made++
			done = &block{buf: make([]byte, 0, s.size)}
		default:
			done = <-parsed
		}
		if done.err != nil {
			break
		}
		cur = s.next(done.buf)
		blocks = append(blocks, cur)
	}
	if work != nil {
		close(work)
		wg.Wait()
	}
	before := 1 // the header
	for _, blk := range blocks {
		if blk.err != nil {
			return nil, blk.refusal(before + blk.lines + 1)
		}
		before += blk.lines
	}
	if s.err != io.EOF {
		return nil, s.err
	}
	return blocks, nil
}

// parse reads the block's edge lines, stopping at the first refusal: a
// line too long, a line of one field, an id that is not a decimal integer
// in [0, n), or a weight that is not a float32 or is NaN.
func (b *block) parse(n int) {
	text := b.text
	b.edges = make([]Edge, 0, bytes.Count(text, []byte{'\n'})+1)
	for ; len(text) > 0; b.lines++ {
		var line []byte
		if line, text, b.err = cutLine(text); b.err != nil {
			return
		}
		e, weighted, ok, err := scanEdge(line, n)
		if err != nil {
			b.err = err
			return
		}
		if ok {
			b.edges = append(b.edges, e)
			b.weighted = b.weighted || weighted
		}
	}
}

// scanEdge reads an edge line in one pass from left to right. ok is
// false for a blank or comment line; weighted reports a third field.
// What follows the third field is ignored.
func scanEdge(line []byte, n int) (e Edge, weighted, ok bool, err error) {
	i := skipSpace(line, 0)
	if i == len(line) || line[i] == '#' {
		return e, false, false, nil
	}
	u, i, errU := scanID(line, i, n)
	if i = skipSpace(line, i); i == len(line) {
		return e, false, false, fmt.Errorf("want 'u v [w]', got %q", bytes.TrimSpace(line))
	}
	if errU != nil {
		return e, false, false, errU
	}
	v, i, err := scanID(line, i, n)
	if err != nil {
		return e, false, false, err
	}
	e = Edge{U: u, V: v, Weight: 1}
	if i = skipSpace(line, i); i == len(line) {
		return e, false, true, nil
	}
	if e.Weight, err = scanWeight(line, i); err != nil {
		return e, false, false, err
	}
	if math.IsNaN(float64(e.Weight)) {
		return e, false, false, errors.New("weight is NaN")
	}
	return e, true, true, nil
}

// scanID reads the vertex id field that starts at line[i] and returns it
// with the index past the field. Up to ten plain decimal digits convert
// here; any other field goes to strconv.Atoi, whose value and error the
// reader keeps.
func scanID(line []byte, i, n int) (V, int, error) {
	var x int64
	j := i
	for ; j < len(line) && j-i < 10 && line[j]-'0' <= 9; j++ {
		x = x*10 + int64(line[j]-'0')
	}
	if j == i || j < len(line) && !isSpace(line[j]) {
		j = fieldEnd(line, j)
		y, err := strconv.Atoi(aliasString(line[i:j]))
		if err != nil {
			return 0, j, err
		}
		x = int64(y)
	}
	// Range-checked before the conversion, which would wrap.
	if x < 0 || x >= int64(n) {
		return 0, j, fmt.Errorf("vertex %d out of range [0,%d)", x, n)
	}
	return V(x), j, nil
}

// scanWeight reads the weight field that starts at line[i]. A plain decimal, digits with at most one
// '.' between more digits, of at most 15 significant digits and at most
// 22 after the point, converts here as float32(mant / 10^frac): mant
// < 2^53 and 10^frac are exact in a float64 and the division rounds once,
// and since every float32 rounding midpoint is a float64, rounding that
// quotient to a float32 rounds the decimal itself correctly, unless the
// quotient lands on a midpoint. That field, and any other (a sign, an
// exponent, "inf", "0x…", more digits), goes to strconv.ParseFloat,
// whose value and error the reader keeps.
func scanWeight(line []byte, i int) (float32, error) {
	var mant uint64
	sig, j := 0, i
	digits := func() {
		for ; j < len(line) && line[j]-'0' <= 9; j++ {
			mant = mant*10 + uint64(line[j]-'0')
			if mant != 0 {
				sig++
			}
		}
	}
	digits()
	plain, frac := j > i, 0
	if j < len(line) && line[j] == '.' {
		j++
		k := j
		digits()
		frac = j - k
		plain = plain && frac > 0
	}
	if plain && sig <= 15 && frac <= 22 && (j == len(line) || isSpace(line[j])) {
		x := float64(mant) / pow10[frac]
		const low = 1<<29 - 1 // the float64 fraction bits a float32 drops
		if math.Float64bits(x)&low != 1<<28 {
			return float32(x), nil
		}
	}
	w, err := strconv.ParseFloat(aliasString(line[i:fieldEnd(line, j)]), 32)
	return float32(w), err
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// skipSpace is the index of the first byte of line at or after i that is
// not a space, or len(line).
func skipSpace(line []byte, i int) int {
	for i < len(line) && isSpace(line[i]) {
		i++
	}
	return i
}

// fieldEnd is the index of the first space in line at or after i, or
// len(line).
func fieldEnd(line []byte, i int) int {
	for i < len(line) && !isSpace(line[i]) {
		i++
	}
	return i
}

// refusal is the block's refusal as the reader reports it, at the given
// input line. A line too long is reported without its number, as
// bufio.Scanner reports it.
func (b *block) refusal(line int) error {
	if b.err == bufio.ErrTooLong {
		return b.err
	}
	return fmt.Errorf("graph: line %d: %v", line, b.err)
}

// cutLine cuts text's first line off as bufio.ScanLines does, without its
// "\n" and one '\r' before it. A line of lineMax bytes or more before its
// newline is refused with bufio.ErrTooLong.
func cutLine(text []byte) (line, rest []byte, err error) {
	line = text
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		line, rest = text[:i], text[i+1:]
	}
	if len(line) >= lineMax {
		return nil, nil, bufio.ErrTooLong
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, rest, nil
}

// A splitter cuts its input into blocks of whole lines.
type splitter struct {
	r     io.Reader
	size  int    // the bytes read before a block is cut at its last newline
	carry []byte // the partial line after the last block cut
	// err ends the input: io.EOF, r's error, or bufio.ErrTooLong for a
	// partial line that has grown to lineMax bytes.
	err error
}

// next reads the next block into buf, growing it as needed: the carried
// partial line and what follows, up to the last newline once size bytes
// are read, or the first newline after them. Once the input ends it
// returns what is left and sets err; that is whole lines only, unless the
// input reached io.EOF, when the last line may lack its newline.
func (s *splitter) next(buf []byte) *block {
	buf = append(buf[:0], s.carry...)
	s.carry = s.carry[:0]
	lineStart := 0 // past the last newline in buf; the carry has none
	for s.err == nil {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		k, err := s.r.Read(buf[len(buf):cap(buf)])
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+k], '\n'); i >= 0 {
			lineStart = len(buf) + i + 1
		}
		buf = buf[:len(buf)+k]
		switch {
		case len(buf)-lineStart >= lineMax:
			s.err = bufio.ErrTooLong
		case err != nil:
			s.err = err
		case len(buf) >= s.size && lineStart > 0:
			s.carry = append(s.carry, buf[lineStart:]...)
			buf = buf[:lineStart]
			return &block{buf: buf, text: buf}
		}
	}
	if s.err != io.EOF {
		buf = buf[:lineStart]
	}
	return &block{buf: buf, text: buf}
}

// isSpace reports whether c is one of the six ASCII whitespace bytes
// strings.Fields splits ASCII text on: '\t', '\n', '\v', '\f', '\r', ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// splitFields stores the first len(out) whitespace-separated fields of
// line in out, in place, and returns how many it stored.
func splitFields(line []byte, out [][]byte) int {
	k, i := 0, skipSpace(line, 0)
	for ; k < len(out) && i < len(line); k++ {
		j := fieldEnd(line, i)
		out[k] = line[i:j]
		i = skipSpace(line, j)
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
