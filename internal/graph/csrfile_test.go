package graph

// The binary CSR format: round trips, one refusal per way a body can be
// wrong, and the fuzz target that holds the reader to the text reader.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func encodeCSR(t testing.TB, g *CSR, directed bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g, directed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawCSR encodes g as WriteCSR would, without WriteCSR's checks, so a
// test can hand the reader a body no writer in the tree produces.
func rawCSR(g *CSR, directed bool) []byte {
	var flags uint32
	if g.Weights != nil {
		flags |= csrFlagWeighted
	}
	if directed {
		flags |= csrFlagDirected
	}
	b := binary.LittleEndian.AppendUint32(nil, csrMagic)
	b = binary.LittleEndian.AppendUint32(b, csrVersion)
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(g.NumV))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.Adj)))
	for _, o := range g.Offsets {
		b = binary.LittleEndian.AppendUint64(b, uint64(o))
	}
	for _, v := range g.Adj {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	for _, w := range g.Weights {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(w))
	}
	return b
}

func TestCSRRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name     string
		g        *CSR
		directed bool
	}{
		{"undirected", randomCSR(t, 300, 1500, false, false, 3), false},
		{"undirected-weighted", randomWeighted(300, 1500, 4), false},
		{"directed-weighted", randomDirected(300, 1500, 5), true},
		{"empty", NewBuilder(0).MustBuild(), false},
		{"weighted-no-arcs", &CSR{NumV: 3, Offsets: make([]int64, 4), Weights: []float32{}}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			body := encodeCSR(t, c.g, c.directed)
			if want := csrBytes(c.g.N(), c.g.M(), c.g.Weighted()); int64(len(body)) != want {
				t.Fatalf("body is %d bytes, csrBytes says %d", len(body), want)
			}
			if !bytes.Equal(body, rawCSR(c.g, c.directed)) {
				t.Fatal("WriteCSR differs from the layout the format states")
			}
			got, directed, err := ReadCSR(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				t.Fatal(err)
			}
			if directed != c.directed || got.Weighted() != c.g.Weighted() {
				t.Fatalf("kind: directed %v weighted %v, want %v %v", directed, got.Weighted(), c.directed, c.g.Weighted())
			}
			sameCSR(t, got, c.g)
		})
	}
}

// TestReadEdgeListDuplicateUndirectedEdgeSymmetric: an undirected edge
// listed twice with different weights keeps its first weight in both
// rows. The builder used to dedupe after an unstable sort, so in a row
// longer than twelve arcs either copy could survive: 0→1 read back
// weighing 3 and 1→0 weighing 2, and the binary format would have refused
// the graph as asymmetric.
func TestReadEdgeListDuplicateUndirectedEdgeSymmetric(t *testing.T) {
	var body strings.Builder
	body.WriteString("# pushpull 40 78 1 0\n")
	for pass := 0; pass < 2; pass++ {
		for v := 39; v >= 2; v-- {
			body.WriteString("0 " + strconv.Itoa(v) + " 1\n")
		}
	}
	body.WriteString("0 1 2\n1 0 3\n")
	g, directed, err := ReadEdgeListKind(strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	w01, w10 := g.Weights[arcIndex(g, 0, 1)], g.Weights[arcIndex(g, 1, 0)]
	if w01 != 2 || w10 != 2 {
		t.Fatalf("w(0→1) = %g, w(1→0) = %g, want the first-listed 2 both ways", w01, w10)
	}
	if err := checkSimple(g, directed); err != nil {
		t.Fatalf("the text reader produced a graph the binary format refuses: %v", err)
	}
}

// csrCorruption is one way a body can be wrong and what its refusal
// must name.
type csrCorruption struct {
	name, wantSub string
	body          []byte
}

// csrCorruptions damages the encoding of g, an undirected weighted graph
// whose row 0 holds at least two arcs: one mutated byte or cut per header
// field and section, then one hand-made body per rule a well-formed
// layout can still break, then one damaged out-degree section of a
// directed pull view.
func csrCorruptions(t *testing.T, g *CSR) []csrCorruption {
	good := encodeCSR(t, g, false)
	dg := randomDirected(40, 200, 3)
	outDeg := make([]int64, dg.N())
	for v := range outDeg {
		outDeg[v] = dg.Degree(V(v))
	}
	var pv bytes.Buffer
	if err := WritePullView(&pv, dg.Transpose(), outDeg); err != nil {
		t.Fatal(err)
	}
	pull := pv.Bytes()
	lastDeg := len(pull) - 8
	n, m := g.N(), int(g.M())
	adj := csrHeaderBytes + 8*(n+1)
	wts := adj + 4*m
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	put32 := func(at int, x uint32) []byte {
		return mut(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[at:], x); return b })
	}
	put64 := func(at int, x uint64) []byte {
		return mut(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[at:], x); return b })
	}
	directed := func(offsets []int64, adj []V, weights []float32) []byte {
		return rawCSR(&CSR{NumV: V(len(offsets) - 1), Offsets: offsets, Adj: adj, Weights: weights}, true)
	}
	return []csrCorruption{
		{"bad-magic", "bad magic", put32(0, 0x4b425050)},
		{"future-version", "version 2, this build reads 1", put32(4, 2)},
		{"unknown-flags", "unknown flag bits 0x8", put32(8, csrFlagWeighted|8)},
		{"pull-view-flag", "is a pull view", put32(8, csrFlagWeighted|csrFlagPullView)},
		{"vertex-count-past-int32", "vertex count 2147483648 exceeds", put32(12, 1<<31)},
		{"vertex-count-up", "truncated weights", put32(12, uint32(n+1))},
		{"vertex-count-down", "trailing bytes", put32(12, uint32(n-1))},
		{"arc-count-up", "truncated weights", put64(16, uint64(m+1))},
		{"arc-count-huge", "do not fit", put64(16, 1<<62)},
		{"offsets-start", "offsets start at 1", put64(csrHeaderBytes, 1)},
		{"offsets-not-monotone", "offsets not monotone", put64(csrHeaderBytes+8, 1<<40)},
		{"adjacency-out-of-range", "names vertex", put32(adj, uint32(n))},
		{"adjacency-unsorted", "row 0 is not strictly increasing", mut(func(b []byte) []byte {
			copy(b[adj:], b[adj+4:adj+8])
			return b
		})},
		{"weights-nan", "NaN weight", put32(wts, 0x7fc00000)},
		{"weights-asymmetric", "weighs", put32(wts, math.Float32bits(1e9))},
		{"truncated-header", "truncated header", good[:csrHeaderBytes-1]},
		{"truncated-offsets", "truncated offsets", good[:adj-1]},
		{"truncated-adjacency", "truncated adjacency", good[:wts-1]},
		{"truncated-weights", "truncated weights", good[:len(good)-1]},
		{"trailing-bytes", "trailing bytes", append(append([]byte(nil), good...), 0)},
		{"self-loop", "vertex 1 has a self-loop", directed([]int64{0, 1, 3}, []V{1, 0, 1}, nil)},
		{"duplicate-arc", "row 0 is not strictly increasing (1 after 1)", directed([]int64{0, 2, 2}, []V{1, 1}, nil)},
		{"asymmetric", "arc 0→1 has no reverse", rawCSR(&CSR{NumV: 2, Offsets: []int64{0, 1, 1}, Adj: []V{1}}, false)},
		{"truncated-out-degrees", "bytes on disk", pull[:len(pull)-1]},
		{"trailing-out-degrees", "bytes on disk", append(append([]byte(nil), pull...), 0)},
		{"out-degrees-sum", "out-degree", binary.LittleEndian.AppendUint64(append([]byte(nil), pull[:lastDeg]...),
			binary.LittleEndian.Uint64(pull[lastDeg:])+1)},
	}
}

// TestCSRCorruptionRejected: the reader refuses every damaged body with an
// error that names the fault, and the writer refuses every graph the
// reader would refuse. The reader refuses a pull-view body for its flag
// alone; unless the case names that refusal, the out-of-core opener must
// refuse the body too, naming the fault.
func TestCSRCorruptionRejected(t *testing.T) {
	g := randomWeighted(60, 400, 9)
	if g.Degree(0) < 2 {
		t.Fatal("fixture: row 0 needs two arcs")
	}
	path := filepath.Join(t.TempDir(), "pull.csr")
	for _, c := range csrCorruptions(t, g) {
		t.Run(c.name, func(t *testing.T) {
			got, _, err := ReadCSR(bytes.NewReader(c.body), 1<<30)
			if err == nil {
				t.Fatalf("damaged body read as a graph of %d vertices", got.N())
			}
			if errors.Is(err, ErrPullView) && !strings.Contains(err.Error(), c.wantSub) {
				if err := os.WriteFile(path, c.body, 0o644); err != nil {
					t.Fatal(err)
				}
				bg, err := OpenBlockCSR(path, false)
				if err == nil {
					bg.Close()
					t.Fatal("damaged pull view opened cleanly")
				}
				if !strings.Contains(err.Error(), c.wantSub) {
					t.Fatalf("opener error %q does not name %q", err, c.wantSub)
				}
				return
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not name %q", err, c.wantSub)
			}
			// A body whose layout holds reaches the content checks, which
			// the writer runs too.
			g, directed, err := readLayout(c.body)
			if err != nil {
				return
			}
			if err := WriteCSR(&bytes.Buffer{}, g, directed); err == nil {
				t.Fatal("WriteCSR wrote a graph ReadCSR refuses")
			}
		})
	}
}

// readLayout decodes a body's arrays without the content checks.
func readLayout(body []byte) (*CSR, bool, error) {
	if len(body) < csrHeaderBytes || binary.LittleEndian.Uint32(body) != csrMagic || binary.LittleEndian.Uint32(body[4:]) != csrVersion {
		return nil, false, strconv.ErrSyntax
	}
	flags := binary.LittleEndian.Uint32(body[8:])
	n := int(binary.LittleEndian.Uint32(body[12:]))
	m := binary.LittleEndian.Uint64(body[16:])
	weighted := flags&csrFlagWeighted != 0
	if flags>>2 != 0 || n > 1<<20 || m > 1<<20 || int64(len(body)) != csrBytes(n, int64(m), weighted) {
		return nil, false, strconv.ErrSyntax
	}
	g := &CSR{NumV: V(n), Offsets: make([]int64, n+1), Adj: make([]V, m)}
	p := body[csrHeaderBytes:]
	for i := range g.Offsets {
		g.Offsets[i] = int64(binary.LittleEndian.Uint64(p[8*i:]))
	}
	p = p[8*(n+1):]
	for i := range g.Adj {
		g.Adj[i] = V(binary.LittleEndian.Uint32(p[4*i:]))
	}
	if weighted {
		p = p[4*m:]
		g.Weights = make([]float32, m)
		for i := range g.Weights {
			g.Weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
		}
	}
	return g, flags&csrFlagDirected != 0, nil
}

// TestCSRHugeHeaderRefusedBeforeAllocating: a 32-byte body whose header
// claims 2^31−1 vertices and 2^40 arcs is refused from the header alone,
// under the body's own length and under the default upload limit.
func TestCSRHugeHeaderRefusedBeforeAllocating(t *testing.T) {
	body := make([]byte, 32)
	binary.LittleEndian.PutUint32(body[0:], csrMagic)
	binary.LittleEndian.PutUint32(body[4:], csrVersion)
	binary.LittleEndian.PutUint32(body[8:], csrFlagWeighted)
	binary.LittleEndian.PutUint32(body[12:], math.MaxInt32)
	binary.LittleEndian.PutUint64(body[16:], 1<<40)
	for _, limit := range []int64{int64(len(body)), 1 << 30} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadCSR(bytes.NewReader(body), limit)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "do not fit") {
			t.Fatalf("limit %d: err = %v, want a refusal naming the limit", limit, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("limit %d: refusing the header allocated %d bytes", limit, alloc)
		}
	}
}

// FuzzReadCSR: whatever the body, ReadCSR refuses it without a panic or
// yields a valid graph that re-encodes to the same bytes. And whatever
// text the edge-list reader accepts goes through WriteCSR and ReadCSR
// unchanged, arrays and kind, so it keeps its content ID: Workload.ID
// hashes nothing else.
func FuzzReadCSR(f *testing.F) {
	for _, text := range roundTripSeeds {
		f.Add([]byte(text))
		if g, directed, err := ReadEdgeListKind(strings.NewReader(text)); err == nil {
			f.Add(encodeCSR(f, g, directed))
		}
	}
	f.Add(encodeCSR(f, randomDirected(20, 60, 7), true))
	f.Add(rawCSR(&CSR{NumV: 2, Offsets: []int64{0, 1, 1}, Adj: []V{1}}, false))
	f.Fuzz(func(t *testing.T, body []byte) {
		if g, directed, err := ReadCSR(bytes.NewReader(body), int64(len(body))); err == nil {
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted body yields an invalid CSR: %v", err)
			}
			if again := encodeCSR(t, g, directed); !bytes.Equal(again, body) {
				t.Fatalf("accepted body re-encodes differently:\n%x\n%x", body, again)
			}
		}
		if n, ok := headerCount(string(body)); ok && n > 1<<16 {
			return // a valid text header this large allocates O(n) before any edge
		}
		g, directed, err := ReadEdgeListKind(bytes.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g, directed); err != nil {
			t.Fatalf("WriteCSR refuses what the text reader produced: %v", err)
		}
		back, backDirected, err := ReadCSR(&buf, int64(buf.Len()))
		if err != nil {
			t.Fatalf("ReadCSR refuses what WriteCSR wrote: %v", err)
		}
		if backDirected != directed || back.Weighted() != g.Weighted() {
			t.Fatalf("kind changed: directed %v→%v, weighted %v→%v", directed, backDirected, g.Weighted(), back.Weighted())
		}
		sameCSR(t, back, g)
	})
}
