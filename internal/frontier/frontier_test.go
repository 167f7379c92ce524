package frontier

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pushpull/internal/gen"
	"pushpull/internal/graph"
	"pushpull/internal/rng"
)

func TestSparseBasics(t *testing.T) {
	s := NewSparse(4)
	if s.Len() != 0 {
		t.Fatal("new frontier not empty")
	}
	s.Add(3)
	s.Add(1)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if vs := s.Vertices(); vs[0] != 3 || vs[1] != 1 {
		t.Fatalf("Vertices = %v", vs)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestSparseEdgeWork(t *testing.T) {
	g := gen.Star(5) // center 0 has degree 4, leaves degree 1
	s := NewSparse(0)
	s.Add(0)
	s.Add(1)
	if w := s.EdgeWork(g); w != 5 {
		t.Fatalf("EdgeWork = %d, want 5", w)
	}
}

func TestPerThreadMergeOrderAndClear(t *testing.T) {
	pt := NewPerThread(3)
	if pt.Threads() != 3 {
		t.Fatalf("Threads = %d", pt.Threads())
	}
	pt.Add(2, 20)
	pt.Add(0, 1)
	pt.Add(1, 10)
	pt.Add(0, 2)
	var dst Sparse
	pt.Merge(&dst)
	// Deterministic order: thread 0's items, then 1's, then 2's.
	want := []graph.V{1, 2, 10, 20}
	got := dst.Vertices()
	if len(got) != len(want) {
		t.Fatalf("merged = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
	if pt.Merge(&dst); dst.Len() != 0 {
		t.Fatal("buffers not cleared by Merge")
	}
}

// Property: merge equals the multiset union of the per-thread buffers.
func TestPerThreadMergeIsUnion(t *testing.T) {
	f := func(items []uint16, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		pt := NewPerThread(p)
		var want []graph.V
		for i, it := range items {
			v := graph.V(it)
			pt.Add(i%p, v)
			want = append(want, v)
		}
		var dst Sparse
		pt.Merge(&dst)
		got := append([]graph.V(nil), dst.Vertices()...)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.N() != 130 {
		t.Fatalf("N = %d", b.N())
	}
	if b.Get(0) || b.Get(129) {
		t.Fatal("new bitmap has bits set")
	}
	if !b.Set(0) || !b.Set(129) || !b.Set(64) {
		t.Fatal("Set on clear bit returned false")
	}
	if b.Set(64) {
		t.Fatal("Set on set bit returned true")
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) {
		t.Fatal("Get after Set failed")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestBitmapSetConcurrentExactlyOneWinner(t *testing.T) {
	b := NewBitmap(1)
	const workers = 16
	wins := make(chan bool, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins <- b.Set(0)
		}()
	}
	wg.Wait()
	close(wins)
	winners := 0
	for w := range wins {
		if w {
			winners++
		}
	}
	if winners != 1 {
		t.Fatalf("winners = %d, want exactly 1", winners)
	}
}

func TestBitmapSparseRoundTrip(t *testing.T) {
	b := NewBitmap(100)
	src := NewSparse(0)
	for _, v := range []graph.V{99, 5, 64, 10} {
		src.Add(v)
	}
	b.FromSparse(src)
	var dst Sparse
	b.ToSparse(&dst) // id order, whatever the insertion order
	if dst.Len() != 4 {
		t.Fatalf("round trip len = %d", dst.Len())
	}
	for i, v := range []graph.V{5, 10, 64, 99} {
		if dst.Vertices()[i] != v {
			t.Fatalf("round trip = %v", dst.Vertices())
		}
	}
}

// Property: bitmap Count equals the number of distinct inserted vertices.
func TestBitmapCountDistinct(t *testing.T) {
	f := func(items []uint8) bool {
		b := NewBitmap(256)
		distinct := map[uint8]bool{}
		for _, it := range items {
			b.Set(graph.V(it))
			distinct[it] = true
		}
		return b.Count() == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The bitmap must be packed: 64 vertices per word, so the words slice —
// the cache footprint the pull probes and heuristic scans touch — is n/64
// rounded up, not a byte or word per vertex.
func TestBitmapIsPacked(t *testing.T) {
	for _, c := range []struct{ n, words int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {130, 3}} {
		b := NewBitmap(c.n)
		if got := len(b.Words()); got != c.words {
			t.Fatalf("NewBitmap(%d): %d words, want %d", c.n, got, c.words)
		}
	}
	b := NewBitmap(128)
	b.SetSeq(0)
	b.SetSeq(63)
	b.SetSeq(64)
	if w := b.Words(); w[0] != 1|1<<63 || w[1] != 1 {
		t.Fatalf("packing wrong: words = %x", w)
	}
}

// ToSparse must list every vertex of a dense bitmap whose length is not a
// word multiple (the word-strided scan must not emit padding bits).
func TestBitmapToSparseDenseOddLength(t *testing.T) {
	const n = 70
	b := NewBitmap(n)
	for v := graph.V(0); v < n; v++ {
		b.SetSeq(v)
	}
	var dst Sparse
	b.ToSparse(&dst)
	if dst.Len() != n {
		t.Fatalf("dense ToSparse len = %d, want %d", dst.Len(), n)
	}
	for i, v := range dst.Vertices() {
		if v != graph.V(i) {
			t.Fatalf("dense ToSparse[%d] = %d", i, v)
		}
	}
}

// MergeWords is the OR of the sources over exactly the given word range:
// whatever the destination held there is overwritten, the sources come
// out empty there, and nothing outside the range moves — including across
// the partial last word.
func TestBitmapMergeWords(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 300} {
		srcs := []*Bitmap{NewBitmap(n), NewBitmap(n), NewBitmap(n)}
		want := NewBitmap(n)
		dst := NewBitmap(n)
		dst.Fill() // stale content the merge must overwrite
		for v := 0; v < n; v++ {
			if v%3 == 0 || v == n-1 {
				srcs[v%len(srcs)].SetSeq(graph.V(v))
				srcs[(v+1)%len(srcs)].SetSeq(graph.V(v)) // marked by two workers
				want.SetSeq(graph.V(v))
			}
		}
		full := NewBitmap(n)
		full.Fill()
		nw := len(dst.Words())
		mid := nw / 2
		dst.MergeWords(srcs, 0, mid)
		for wi := mid; wi < nw; wi++ {
			if dst.Words()[wi] != full.Words()[wi] {
				t.Fatalf("n=%d: word %d outside the merged range changed", n, wi)
			}
			if srcs[0].Words()[wi]|srcs[1].Words()[wi]|srcs[2].Words()[wi] != want.Words()[wi] {
				t.Fatalf("n=%d: source word %d outside the merged range was drained", n, wi)
			}
		}
		dst.MergeWords(srcs, mid, nw)
		for wi, w := range dst.Words() {
			if w != want.Words()[wi] {
				t.Fatalf("n=%d: merged word %d = %#x, want %#x", n, wi, w, want.Words()[wi])
			}
		}
		if dst.Count() != want.Count() {
			t.Fatalf("n=%d: merged count %d, want %d", n, dst.Count(), want.Count())
		}
		for i, s := range srcs {
			if s.Count() != 0 {
				t.Fatalf("n=%d: source %d not drained", n, i)
			}
		}
	}
}

// Sort (and the Drain under it) must give the sorted vertices on both
// read-outs, short lists sorted and long ones read out of the words, and
// leave the scratch bitmap empty for the next round.
func TestSparseSortBothReadOuts(t *testing.T) {
	for _, n := range []int{1, 63, 64, 1000, 4099} {
		scratch := NewBitmap(n)
		for _, k := range []int{0, 1, 2, 5, n / 8, n / 2, n} {
			k = min(k, n)
			rnd := rng.New(uint64(n*31 + k))
			perm := make([]graph.V, n)
			for i := range perm {
				perm[i] = graph.V(i)
			}
			for i := n - 1; i > 0; i-- {
				j := rnd.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			s := NewSparse(k)
			for _, v := range perm[:k] {
				s.Add(v)
			}
			s.Sort(scratch)
			want := append([]graph.V(nil), perm[:k]...)
			slices.Sort(want)
			if !slices.Equal(s.Vertices(), want) {
				t.Fatalf("n=%d k=%d: sorted %v, want %v", n, k, s.Vertices(), want)
			}
			if c := scratch.Count(); c != 0 {
				t.Fatalf("n=%d k=%d: scratch left with %d bits", n, k, c)
			}
		}
	}
}

func TestUsePull(t *testing.T) {
	// Tiny frontier over a huge graph: stay top-down (push).
	if UsePull(10, 1_000_000, 5, 100_000) {
		t.Fatal("switched to pull with a tiny frontier")
	}
	// Huge frontier: go bottom-up (pull).
	if !UsePull(500_000, 1_000_000, 50_000, 100_000) {
		t.Fatal("stayed top-down with a huge frontier")
	}
}

func BenchmarkBitmapSet(b *testing.B) {
	bm := NewBitmap(1 << 20)
	for i := 0; i < b.N; i++ {
		bm.Set(graph.V(i & ((1 << 20) - 1)))
	}
}

func BenchmarkPerThreadMerge(b *testing.B) {
	pt := NewPerThread(8)
	var dst Sparse
	for i := 0; i < b.N; i++ {
		for w := 0; w < 8; w++ {
			for j := 0; j < 128; j++ {
				pt.Add(w, graph.V(j))
			}
		}
		pt.Merge(&dst)
	}
}
