package graph

// Round-trip fidelity regressions for the kind-aware edge-list format:
// directedness and weights must survive WriteEdgeList → ReadEdgeList,
// and the pre-kind header (no directed flag) must keep loading as
// undirected.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"pushpull/internal/rng"
)

// sameCSR compares structure and weights exactly.
func sameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape changed: n %d→%d, m %d→%d", want.N(), got.N(), want.M(), got.M())
	}
	for v := V(0); v < want.NumV; v++ {
		a, b := want.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d: degree %d→%d", v, len(a), len(b))
		}
		wa, wb := want.NeighborWeights(v), got.NeighborWeights(v)
		if (wa == nil) != (wb == nil) {
			t.Fatalf("vertex %d: weights presence changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("vertex %d arc %d: %d→%d", v, i, a[i], b[i])
			}
			if wa != nil && math.Float32bits(wa[i]) != math.Float32bits(wb[i]) {
				t.Fatalf("vertex %d arc %d: weight %g→%g", v, i, wa[i], wb[i])
			}
		}
	}
}

func TestEdgeListDirectedRoundTrip(t *testing.T) {
	b := NewBuilder(5).Directed()
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(3, 1)
	b.AddEdge(1, 4) // 1↔... asymmetric arcs throughout
	g := b.MustBuild()
	if g.IsSymmetric() {
		t.Fatal("fixture unexpectedly symmetric")
	}

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# pushpull 5 5 0 1\n") {
		t.Fatalf("header does not record directedness: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("round trip lost directedness")
	}
	sameCSR(t, g2, g)
}

func TestEdgeListDirectedWeightedRoundTrip(t *testing.T) {
	b := NewBuilder(4).Directed()
	b.AddEdgeW(0, 1, 2.5)
	b.AddEdgeW(1, 0, 7) // both arcs present but with different weights
	b.AddEdgeW(2, 3, 1.25)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("round trip lost directedness")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListAsymmetricWeightsDetected: a symmetric adjacency whose two
// arc weights differ is NOT representable undirected; detection must fall
// back to arc-by-arc serialization even though IsSymmetric() holds.
func TestEdgeListAsymmetricWeightsDetected(t *testing.T) {
	b := NewBuilder(2).Directed()
	b.AddEdgeW(0, 1, 1)
	b.AddEdgeW(1, 0, 9)
	g := b.MustBuild()
	if !g.IsSymmetric() {
		t.Fatal("fixture adjacency should be symmetric")
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("asymmetric weights serialized as undirected — weight lost")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListUndirectedStaysCompact: a genuinely undirected graph keeps
// the one-line-per-edge format and reads back with directed = false.
func TestEdgeListUndirectedStaysCompact(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeW(0, 1, 4)
	b.AddEdgeW(1, 2, 5)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	if lines != 3 { // header + one line per undirected edge
		t.Fatalf("undirected graph serialized in %d lines, want 3:\n%s", lines, buf.String())
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if directed {
		t.Fatal("undirected graph read back directed")
	}
	sameCSR(t, g2, g)
}

// TestEdgeListLegacyHeader: the pre-kind four-field header still loads,
// as an undirected graph.
func TestEdgeListLegacyHeader(t *testing.T) {
	g, directed, err := ReadEdgeListKind(strings.NewReader("# pushpull 3 2 0\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if directed {
		t.Fatal("legacy header read as directed")
	}
	if g.UndirectedM() != 2 || !g.IsSymmetric() {
		t.Fatalf("legacy graph misparsed: m=%d", g.UndirectedM())
	}
}

func TestWriteEdgeListKindExplicit(t *testing.T) {
	// An undirected (symmetric) graph may still be pinned directed by the
	// caller: every arc is emitted and the flag recorded.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeListKind(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	g2, directed, err := ReadEdgeListKind(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !directed {
		t.Fatal("explicit directed flag not recorded")
	}
	sameCSR(t, g2, g) // both arcs were written, so the CSR matches
}

// hostileEdgeLists are bodies whose numbers do not fit the vertex type:
// before the reader range-checked them, the first two panicked in Build
// (makeslice), the third loaded as n = 4 and the fourth stored the edge
// (1, 2).
var hostileEdgeLists = []string{
	"# pushpull -5 0 0 0\n",
	"# pushpull 2147483648 0 0 0\n",
	"# pushpull 4294967300 1 0 0\n",
	"# pushpull 4 1 0 0\n4294967297 2\n",
}

func TestReadEdgeListRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct {
		body, want string
	}{
		{hostileEdgeLists[0], "line 1: vertex count -5 out of range"},
		{hostileEdgeLists[1], "line 1: vertex count 2147483648 out of range"},
		{hostileEdgeLists[2], "line 1: vertex count 4294967300 out of range"},
		{hostileEdgeLists[3], "line 2: vertex 4294967297 out of range [0,4)"},
		{"# pushpull 4 1 0 0\n0 -1\n", "line 2: vertex -1 out of range [0,4)"},
		{"# pushpull 4 2 1 0\n0 1 2\n# note\n3 4 1\n", "line 4: vertex 4 out of range [0,4)"},
		{"# pushpull 4 1 0 0\n0 99999999999999999999\n", "line 2: "},
	} {
		_, _, err := ReadEdgeListKind(strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: err = %v, want one containing %q", c.body, err, c.want)
		}
	}
}

func TestBuildRejectsBadVertexCount(t *testing.T) {
	for _, n := range []int{-1, math.MaxInt32 + 1} {
		if _, err := NewBuilder(n).Build(); err == nil {
			t.Errorf("NewBuilder(%d).Build() succeeded", n)
		}
	}
}

// FuzzReadEdgeList: whatever the body, the reader either refuses it or
// yields a valid CSR that survives a write/read round trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	for _, body := range roundTripSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if n, ok := headerCount(body); ok && n > 1<<16 {
			t.Skip("a valid header this large allocates O(n) before any edge")
		}
		g, directed, err := ReadEdgeListKind(strings.NewReader(body))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted body yields an invalid CSR: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteEdgeListKind(&buf, g, directed); err != nil {
			t.Fatal(err)
		}
		back, backDirected, err := ReadEdgeListKind(&buf)
		if err != nil {
			t.Fatalf("re-reading the written list: %v\n%s", err, buf.String())
		}
		if backDirected != directed {
			t.Fatalf("directed %v → %v", directed, backDirected)
		}
		sameCSR(t, back, g)
	})
}

// headerCount is the vertex count a body's header declares, if it parses.
func headerCount(body string) (int, bool) {
	line, _, _ := strings.Cut(body, "\n")
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return 0, false
	}
	n, err := strconv.Atoi(fields[2])
	return n, err == nil
}

// oracleReadEdgeListKind is the straightforward reader ReadEdgeListKind
// must agree with on ASCII input: a Scanner, TrimSpace and Fields per
// line, strconv for every number, a NaN weight refused, and the
// sequential oracleBuild.
func oracleReadEdgeListKind(r io.Reader) (*CSR, bool, error) {
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
			if math.IsNaN(w) {
				return nil, false, fmt.Errorf("graph: line %d: weight is NaN", line)
			}
			b.AddEdgeW(u, v, float32(w))
		} else {
			b.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	g, err := oracleBuild(b)
	if err != nil {
		return nil, false, err
	}
	return g, directed, nil
}

var lineRE = regexp.MustCompile(`line (\d+):`)

// errLine is the line number an error names, or 0.
func errLine(err error) int {
	m := lineRE.FindStringSubmatch(err.Error())
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// roundTripSeeds are FuzzReadEdgeList's starting bodies.
var roundTripSeeds = append(hostileEdgeLists[:len(hostileEdgeLists):len(hostileEdgeLists)],
	"# pushpull 3 2 0\n# comment\n\n0 1\n1 2\n",
	"# pushpull 4 3 1 1\n0 1 2.5\n1 0 3\n2 2 1\n",
	"# pushpull 3 2 1 0\n0 1 5\n0 1 7\n",
	"# pushpull 1 0 1 0\n0 0 0\n", // weighted, every edge a dropped self-loop
	"# pushpull 0 0",              // a header with no flags
)

// readerSeeds are FuzzReadEdgeListOracle's: the round-trip seeds plus
// bodies that exercise each rule of the format.
var readerSeeds = append(roundTripSeeds[:len(roundTripSeeds):len(roundTripSeeds)],
	"# pushpull 3 2 1 0\r\n0\t1 -0\r\n\v1 2 +Inf \f\r\n #c\n2 1\n",
	"# pushpull 3 2 1 1\n0 1 1e-45\n1 2 0x1p-3\n2 0 NaN\n",
	"# pushpull 4 1 0 0\n0 +3\n0 0003\n1 1_0\n",
	"# pushpull 4 1 1 0\n0 1 9999999\n1 2 12345678\n2 3 1e39\n",
	"# pushpull 3 2 0 0\n0 1\n1 2 2.5\n", // a weight under an unweighted header
)

// FuzzReadEdgeListOracle: on ASCII bodies the reader and the oracle agree
// on accepting or refusing, on the line a refusal names, on the kind and
// on the graph.
func FuzzReadEdgeListOracle(f *testing.F) {
	for _, body := range readerSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		for i := 0; i < len(body); i++ {
			if body[i] >= 0x80 {
				t.Skip("Unicode spaces separate fields for the oracle only")
			}
		}
		if n, ok := headerCount(body); ok && n > 1<<16 {
			t.Skip("a valid header this large allocates O(n) before any edge")
		}
		og, odirected, oerr := oracleReadEdgeListKind(strings.NewReader(body))
		for _, size := range blockSizes {
			g, directed, err := readEdgeList(strings.NewReader(body), size, math.MaxInt64)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("block size %d: reader err = %v, oracle err = %v", size, err, oerr)
			}
			if err != nil {
				if errLine(err) != errLine(oerr) {
					t.Fatalf("block size %d: reader refuses %q, oracle %q", size, err, oerr)
				}
				continue
			}
			if directed != odirected {
				t.Fatalf("block size %d: directed %v, oracle %v", size, directed, odirected)
			}
			sameCSR(t, g, og)
		}
	})
}

// blockSizes are the block sizes the differential tests read at: the
// reader's own, and sizes at which lines straddle block boundaries.
var blockSizes = []int{blockSize, 1, 7, 64}

// agreesWithOracle reads body at every block size, in one Read and one
// byte per Read, and fails unless each read gives the oracle's graph and
// kind, or its error.
func agreesWithOracle(t *testing.T, body string) {
	t.Helper()
	og, odirected, oerr := oracleReadEdgeListKind(strings.NewReader(body))
	for _, size := range blockSizes {
		for _, r := range []io.Reader{strings.NewReader(body), iotest.OneByteReader(strings.NewReader(body))} {
			g, directed, err := readEdgeList(r, size, math.MaxInt64)
			if (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
				t.Fatalf("%.40q at block size %d: reader err = %v, oracle err = %v", body, size, err, oerr)
			}
			if err != nil {
				continue
			}
			if directed != odirected {
				t.Fatalf("%.40q at block size %d: directed %v, oracle %v", body, size, directed, odirected)
			}
			sameCSR(t, g, og)
		}
	}
}

// TestReadEdgeListMatchesOracle runs the differential check on the seeds
// and on a written rmat-like list, lines in their written order and
// reversed (so every row needs the builder's sort).
func TestReadEdgeListMatchesOracle(t *testing.T) {
	for _, body := range readerSeeds {
		agreesWithOracle(t, body)
	}
	for _, directed := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteEdgeListKind(&buf, randomWeighted(500, 4000, 3), directed); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		for i, j := 1, len(lines)-1; i < j; i, j = i+1, j-1 {
			lines[i], lines[j] = lines[j], lines[i]
		}
		for _, body := range []string{buf.String(), strings.Join(lines, "\n")} {
			if _, d, err := ReadEdgeListKind(strings.NewReader(body)); err != nil || d != directed {
				t.Fatalf("directed %v, written %v: err = %v", d, directed, err)
			}
			agreesWithOracle(t, body)
		}
	}
}

// randomWeighted is a weighted undirected graph with m random edges
// (duplicates merged, loops dropped) whose weights include fractions.
func randomWeighted(n, m int, seed uint64) *CSR {
	b := NewBuilder(n)
	r := rng.New(seed)
	for i := 0; i < m; i++ {
		b.AddEdgeW(V(r.Intn(n)), V(r.Intn(n)), float32(r.Intn(1000))/8)
	}
	return b.MustBuild()
}

// TestReadEdgeListLineRules pins the format rules the doc comment states.
func TestReadEdgeListLineRules(t *testing.T) {
	for _, c := range []struct{ body, want string }{
		{"# pushpull 3 1 1 0\n0 1 NaN\n", "line 2: weight is NaN"},
		{"# pushpull 3 1 1 0\n# c\n0 1 nan\n", "line 3: weight is NaN"},
		{"# pushpull 3 1 0 0\n0\u00a01\n", "line 2: want 'u v [w]'"},
		{"# pushpull 3 1 0 0\n0 1\u00a0\n", "line 2: strconv.Atoi"},
		{"# pushpull 3 1 0 0\n0\u00851\n", "line 2: want 'u v [w]'"},
		{"# pushpull 3 1 0 0\n" + strings.Repeat(" ", lineMax) + "0 1\n", bufio.ErrTooLong.Error()},
	} {
		_, _, err := ReadEdgeListKind(strings.NewReader(c.body))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%.40q: err = %v, want one containing %q", c.body, err, c.want)
		}
	}
	long := "# pushpull 3 1 0 0\n0 1" + strings.Repeat(" ", lineMax-5) + "\r\n"
	if g, err := ReadEdgeList(strings.NewReader(long)); err != nil || g.UndirectedM() != 1 {
		t.Fatalf("a line of exactly %d bytes: err = %v", lineMax, err)
	}
}

// TestReadEdgeListBlockBoundaries reads bodies whose lines, refusals and
// line ends fall across block boundaries, at every block size, and holds
// each read to the oracle: the same graph, or the same error.
func TestReadEdgeListBlockBoundaries(t *testing.T) {
	const hdr = "# pushpull 3 2 0 0\n"
	for _, size := range blockSizes {
		// More than a block of good lines before each of two refusals.
		fill := strings.Repeat("0 1\n", size/4+2)
		twoRefusals := hdr + fill + "0 x\n" + fill + "9 0\n" + fill
		if _, _, err := readEdgeList(strings.NewReader(twoRefusals), size, math.MaxInt64); err == nil ||
			!strings.Contains(err.Error(), fmt.Sprintf("line %d: strconv.Atoi", size/4+4)) {
			t.Errorf("block size %d: err = %v, want the first refusal's line, %d", size, err, size/4+4)
		}
		agreesWithOracle(t, twoRefusals)
	}
	for _, c := range []struct{ name, body, want string }{
		{"a \\r\\n whose bytes arrive in different reads", "# pushpull 3 2 1 0\r\n0 1 2\r\n1 2\r\n\r\n", ""},
		{"a line of lineMax bytes", hdr + "0 1" + strings.Repeat(" ", lineMax-5) + "\r\n1 2\n", ""},
		{"a line of lineMax+1 bytes", hdr + "0 1" + strings.Repeat(" ", lineMax-4) + "\r\n1 2\n", bufio.ErrTooLong.Error()},
		{"an unended last line of lineMax bytes", hdr + "0 1" + strings.Repeat(" ", lineMax-3), bufio.ErrTooLong.Error()},
		{"a refusal before a line too long", hdr + "0 x\n" + strings.Repeat(" ", lineMax+9) + "\n", "line 2: strconv.Atoi"},
	} {
		if _, _, err := ReadEdgeListKind(strings.NewReader(c.body)); c.want == "" && err != nil ||
			c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		agreesWithOracle(t, c.body)
	}
	// A line with no end is refused once it reaches lineMax bytes, not
	// read on to the end of the input.
	endless := strings.NewReader(hdr + strings.Repeat(" ", 8*lineMax))
	if _, _, err := ReadEdgeListKind(endless); err != bufio.ErrTooLong || endless.Len() < 5*lineMax {
		t.Errorf("a line with no end: err = %v after %d bytes, want %v within %d", err, endless.Size()-int64(endless.Len()), bufio.ErrTooLong, 3*lineMax)
	}
	// A block's first size bytes ending at every byte of the body, so at
	// each '\r' and each '\n' of its line ends.
	body := "# pushpull 3 2 1 0\r\n0 1 2\r\n1 2\r\n"
	want, _, _ := oracleReadEdgeListKind(strings.NewReader(body))
	for size := 1; size <= len(body); size++ {
		g, _, err := readEdgeList(strings.NewReader(body), size, math.MaxInt64)
		if err != nil {
			t.Fatalf("block size %d: %v", size, err)
		}
		sameCSR(t, g, want)
	}
}

// TestReadEdgeListLeavesNoGoroutine: after a refusal in the first of many
// blocks, and after a source that fails mid-stream, the reader returns
// with its parsers gone, and the refusal stops it reading on.
func TestReadEdgeListLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	base := runtime.NumGoroutine()
	const hdr = "# pushpull 2 1 0 0\n"
	fill := strings.Repeat("0 1\n", 20_000)
	boom := errors.New("source failed")
	refused := strings.NewReader(hdr + "0 x\n" + fill)
	if _, _, err := readEdgeList(refused, 64, math.MaxInt64); err == nil || !strings.Contains(err.Error(), "line 2:") {
		t.Errorf("refusal in the first block: err = %v, want line 2", err)
	}
	if refused.Len() < len(fill)/2 {
		t.Errorf("read %d of %d bytes past a refusal in the first block", int(refused.Size())-refused.Len(), refused.Size())
	}
	// The line the source fails in is not read to its end, so it is not
	// parsed: "0" would be refused.
	failing := io.MultiReader(strings.NewReader(hdr+fill+"0"), iotest.ErrReader(boom))
	if _, _, err := readEdgeList(failing, 64, math.MaxInt64); !errors.Is(err, boom) {
		t.Errorf("source failing mid-stream: err = %v, want %v", err, boom)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the reads, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// weightSeeds are FuzzEdgeWeight's starting fields: float32 rounding
// midpoints printed exactly and to 9–17 digits, mantissas at and past
// the scanner's 15 digits, fractions at and past its 22 digits, and the
// forms strconv alone reads.
func weightSeeds() []string {
	seeds := []string{
		"0", "0.", ".5", "-0", "+1", "0007.50", "000000000000000000001.5", "1e-5", "1E5",
		"123456789012345", "1234567890123456", "0.123456789012345", "1.234567890123456",
		"0.0000000000000000000001", "0.00000000000000000000001",
		"1.2345678901234567890123", "99999999999999.9", "16777217", "16777219", "33554435",
		"inf", "NaN", "0x1p-3", "1_0", "5..5", "3.4028236e38",
	}
	for _, f := range []float32{1, 0.1, 1.5, 37.12345, 99.99999, 16777216, 3.4e5, 1e-7, 1e14} {
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		seeds = append(seeds, strings.TrimRight(strconv.FormatFloat(mid, 'f', 80, 64), "0"))
		for digits := 9; digits <= 17; digits++ {
			seeds = append(seeds, strconv.FormatFloat(mid, 'f', digits-1-int(math.Floor(math.Log10(mid))), 64))
		}
	}
	return seeds
}

// FuzzEdgeWeight holds the scanner's weight to strconv.ParseFloat(s, 32)
// on the field s starts with, bit for bit, accepted or refused.
func FuzzEdgeWeight(f *testing.F) {
	for _, s := range weightSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sameWeight(t, s)
	})
}

// sameWeight fails unless scanWeight reads the field s starts with as
// strconv.ParseFloat(field, 32) does: the same float32 bits and the same
// error.
func sameWeight(t *testing.T, s string) {
	t.Helper()
	field := s[:fieldEnd([]byte(s), 0)]
	if field == "" {
		return // a field starts at a byte that is not a space
	}
	w, err := scanWeight([]byte(s), 0)
	want, wantErr := strconv.ParseFloat(field, 32)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%q: err = %v, strconv %v", s, err, wantErr)
	}
	if math.Float32bits(w) != math.Float32bits(float32(want)) {
		t.Fatalf("%q: %g (%#x), strconv %g (%#x)", s, w, math.Float32bits(w), want, math.Float32bits(float32(want)))
	}
}

// TestScanWeightMatchesStrconv runs sameWeight on the seeds and on
// random decimals: short ones, and ones within a digit in the last place
// of a float32 rounding midpoint, where a second rounding would show.
func TestScanWeightMatchesStrconv(t *testing.T) {
	for _, s := range weightSeeds() {
		sameWeight(t, s)
	}
	r := rng.New(11)
	for i := 0; i < 100_000; i++ {
		f := math.Float32frombits(uint32(r.Intn(0x7f000000)))
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		digits := 9 + r.Intn(9)
		s := strconv.FormatFloat(mid, 'f', max(0, digits-1-int(math.Floor(math.Log10(mid)))), 64)
		last := s[len(s)-1] - '0'
		if nudge := byte(r.Intn(3)); last+nudge >= 1 && last+nudge <= 10 {
			s = s[:len(s)-1] + string('0'+last+nudge-1)
		}
		sameWeight(t, s)
		sameWeight(t, strconv.Itoa(r.Intn(1000))+"."+strconv.Itoa(r.Intn(100000)))
	}
}

// TestEdgeListZeroAndInfWeights: an explicit zero weight reads back as
// zero, not 1, as do -0, +Inf and the smallest subnormal, and a
// weightless line in a weighted list reads as 1.
func TestEdgeListZeroAndInfWeights(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# pushpull 4 3 1 0\n0 1 0\n1 2 2\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(g.Weights), "[0 0 2 2 1 1]"; got != want {
		t.Fatalf("weights %s, want %s", got, want)
	}
	b := NewBuilder(4).Directed()
	b.AddEdgeW(0, 1, 0)
	b.AddEdgeW(1, 2, float32(math.Copysign(0, -1)))
	b.AddEdgeW(2, 3, float32(math.Inf(1)))
	b.AddEdgeW(3, 0, 1e-45)
	g = b.MustBuild()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, back, g)
}

// fmtWriteEdgeListKind is the format written with fmt: one Fprintf per
// arc, the oracle WriteEdgeListKind must match byte for byte.
func fmtWriteEdgeListKind(w io.Writer, g *CSR, directed bool) {
	weighted, dirFlag, m := 0, 0, g.UndirectedM()
	if g.Weighted() {
		weighted = 1
	}
	if directed {
		dirFlag, m = 1, g.M()
	}
	fmt.Fprintf(w, "# pushpull %d %d %d %d\n", g.N(), m, weighted, dirFlag)
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if !directed && u < v {
				continue
			}
			if ws != nil {
				fmt.Fprintf(w, "%d %d %g\n", v, u, ws[i])
			} else {
				fmt.Fprintf(w, "%d %d\n", v, u)
			}
		}
	}
}

func TestWriteEdgeListMatchesFmt(t *testing.T) {
	special := []float32{0, float32(math.Copysign(0, -1)), 1e-45, 1.0 / 3, 3.4028235e+38,
		float32(math.Inf(1)), float32(math.NaN()), -2.5, 7, 16777216, 1e-7}
	b := NewBuilder(len(special) + 1)
	for i, w := range special {
		b.AddEdgeW(V(i), V(i+1), w)
	}
	weighted := b.MustBuild()
	unweighted := NewBuilder(1000)
	for i := 0; i < 999; i++ {
		unweighted.AddEdge(V(i), V((i*7+13)%1000))
	}
	for name, g := range map[string]*CSR{
		"special weights":   weighted,
		"random weighted":   randomWeighted(300, 2000, 5),
		"unweighted":        unweighted.MustBuild(),
		"directed weighted": randomDirected(300, 2000, 9),
	} {
		for _, directed := range []bool{false, true} {
			var got, want bytes.Buffer
			if err := WriteEdgeListKind(&got, g, directed); err != nil {
				t.Fatal(err)
			}
			fmtWriteEdgeListKind(&want, g, directed)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s, directed %v: output differs from fmt's", name, directed)
			}
		}
	}
}

// randomDirected is randomWeighted with arcs kept one way.
func randomDirected(n, m int, seed uint64) *CSR {
	g := randomWeighted(n, m, seed)
	b := NewBuilder(n).Directed()
	for v := V(0); v < g.NumV; v++ {
		ws := g.NeighborWeights(v)
		for i, u := range g.Neighbors(v) {
			if (u+v)%3 != 0 {
				b.AddEdgeW(v, u, ws[i]+float32(v))
			}
		}
	}
	return b.MustBuild()
}

// TestEdgeListAllocs pins the codec's allocations: the writer's do not
// depend on the arc count, and the reader's grow with it only by the
// edge slice's growth.
func TestEdgeListAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts under -short are not the point")
	}
	bodies := map[int][]byte{}
	writes := map[int]float64{}
	for _, m := range []int{10_000, 100_000} {
		g := randomWeighted(m/4, m, 7)
		var buf bytes.Buffer
		if err := WriteEdgeListKind(&buf, g, true); err != nil {
			t.Fatal(err)
		}
		bodies[m] = buf.Bytes()
		// Twenty runs, so that a stray allocation elsewhere in the
		// process (the race runtime's, say) averages away.
		writes[m] = testing.AllocsPerRun(20, func() {
			if err := WriteEdgeListKind(io.Discard, g, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	if writes[10_000] != writes[100_000] || writes[100_000] > 2 {
		t.Errorf("writer allocations %v at 10k arcs, %v at 100k: want one constant ≤ 2 (the bufio.Writer and its buffer)", writes[10_000], writes[100_000])
	}
	reads := map[int]float64{}
	for m, body := range bodies {
		reads[m] = testing.AllocsPerRun(3, func() {
			if _, _, err := ReadEdgeListKind(bytes.NewReader(body)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := reads[100_000] - reads[10_000]; d < 0 || d > 32 {
		t.Errorf("reader allocations %v at 10k lines, %v at 100k: want them within 32", reads[10_000], reads[100_000])
	}
}

// TestReadEdgeListLimit: a header's vertices are charged vertexBytes
// each against the limit before any edge is read: a graph whose vertices
// fit exactly is read, and at one byte less the header is refused with
// ErrTooLarge.
func TestReadEdgeListLimit(t *testing.T) {
	const body = "# pushpull 4 1 0\n0 1\n"
	if g, _, err := ReadEdgeListLimit(strings.NewReader(body), 4*vertexBytes); err != nil || g.NumV != 4 {
		t.Errorf("at a limit of exactly 4 vertices: %v, %v", g, err)
	}
	if _, _, err := ReadEdgeListLimit(strings.NewReader(body), 4*vertexBytes-1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("at one byte less: err = %v, want ErrTooLarge", err)
	}
}
