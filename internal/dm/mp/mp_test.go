package mp

import (
	"testing"
	"testing/quick"

	"pushpull/internal/counters"
	"pushpull/internal/dm"
)

func cluster(t *testing.T, p int) *dm.Cluster {
	t.Helper()
	c, err := dm.NewCluster(p, dm.AriesCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAlltoallv(t *testing.T) {
	const p = 4
	c := cluster(t, p)
	comm := New(c)
	if err := c.Run(func(r *dm.Rank) {
		send := make([][]byte, p)
		for d := 0; d < p; d++ {
			send[d] = []byte{byte(r.ID), byte(d)}
		}
		recv, err := comm.Alltoallv(r, send)
		if err != nil {
			t.Error(err)
			return
		}
		for s := 0; s < p; s++ {
			if len(recv[s]) != 2 || recv[s][0] != byte(s) || recv[s][1] != byte(r.ID) {
				t.Errorf("rank %d: recv[%d] = %v", r.ID, s, recv[s])
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if got := rep.Get(counters.Collectives); got != p {
		t.Fatalf("collectives = %d", got)
	}
}

func TestAlltoallvValidation(t *testing.T) {
	c := cluster(t, 2)
	comm := New(c)
	c.Run(func(r *dm.Rank) {
		if r.ID == 0 {
			if _, err := comm.Alltoallv(r, make([][]byte, 1)); err == nil {
				t.Error("wrong buffer count accepted")
			}
		}
		// Rank 1 must not enter the collective, or it would deadlock
		// waiting for rank 0 whose call failed validation.
	})
}

func TestPairCodecRoundTrip(t *testing.T) {
	f := func(idx []int32, vals []float64) bool {
		n := len(idx)
		if len(vals) < n {
			n = len(vals)
		}
		idx, vals = idx[:n], vals[:n]
		buf := EncodePairs(idx, vals)
		gi, gv, err := DecodePairs(buf)
		if err != nil || len(gi) != n {
			return false
		}
		for i := 0; i < n; i++ {
			if gi[i] != idx[i] {
				return false
			}
			// NaN-safe comparison via bit equality is what matters here.
			if gv[i] != vals[i] && !(vals[i] != vals[i] && gv[i] != gv[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodePairs(make([]byte, 5)); err == nil {
		t.Fatal("ragged pair buffer accepted")
	}
}

func TestCountCodecRoundTrip(t *testing.T) {
	idx := []int32{3, 1, 999}
	cnt := []int32{7, 0, -2}
	gi, gc, err := DecodeCounts(EncodeCounts(idx, cnt))
	if err != nil {
		t.Fatal(err)
	}
	for i := range idx {
		if gi[i] != idx[i] || gc[i] != cnt[i] {
			t.Fatalf("round trip: %v %v", gi, gc)
		}
	}
	if _, _, err := DecodeCounts(make([]byte, 3)); err == nil {
		t.Fatal("ragged count buffer accepted")
	}
}
