package rma

import (
	"testing"

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

func TestFloatWinValidation(t *testing.T) {
	c := cluster(t, 2)
	if _, err := NewFloatWin(c, []int{1}); err == nil {
		t.Fatal("size count mismatch accepted")
	}
	if _, err := NewFloatWin(c, []int{1, -1}); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := NewIntWin(c, []int{1}); err == nil {
		t.Fatal("int size count mismatch accepted")
	}
}

func TestFloatWinPutGetAccumulate(t *testing.T) {
	c := cluster(t, 2)
	w, err := NewFloatWin(c, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(r *dm.Rank) {
		if r.ID == 0 {
			w.Put(r, 1, 0, 3.5)      // remote put
			w.Accumulate(r, 1, 0, 1) // remote accumulate
			w.Flush(r, 1)
		}
		c.Barrier(r)
		if r.ID == 1 {
			if got := w.Get(r, 1, 0); got != 4.5 {
				t.Errorf("window value = %v", got)
			}
			local := w.Local(r)
			if local[0] != 4.5 || w.SegLen(1) != 2 {
				t.Errorf("local = %v", local)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	rep := c.Report()
	if rep.Get(counters.RemoteWrites) != 1 || rep.Get(counters.RemoteAtomics) != 1 {
		t.Fatalf("remote ops: %v", rep)
	}
}

func TestLocalOpsNotCountedRemote(t *testing.T) {
	c := cluster(t, 2)
	w, _ := NewFloatWin(c, []int{2, 2})
	c.Run(func(r *dm.Rank) {
		w.Put(r, r.ID, 0, 1)
		w.Get(r, r.ID, 0)
		w.Accumulate(r, r.ID, 0, 1)
	})
	rep := c.Report()
	if rep.Get(counters.RemoteWrites) != 0 || rep.Get(counters.RemoteReads) != 0 ||
		rep.Get(counters.RemoteAtomics) != 0 {
		t.Fatalf("local ops counted as remote: %v", rep)
	}
}

func TestFloatAccumulateCostAsymmetry(t *testing.T) {
	// The §6.3 mechanism: a remote float accumulate must cost much more
	// than a remote integer FAA.
	c := cluster(t, 2)
	fw, _ := NewFloatWin(c, []int{1, 1})
	iw, _ := NewIntWin(c, []int{1, 1})
	var fCost, iCost float64
	c.Run(func(r *dm.Rank) {
		if r.ID == 0 {
			before := r.Clock()
			fw.Accumulate(r, 1, 0, 1)
			fCost = r.Clock() - before
			before = r.Clock()
			iw.FAA(r, 1, 0, 1)
			iCost = r.Clock() - before
		}
	})
	if fCost < 5*iCost {
		t.Fatalf("float accumulate %v not ≫ int FAA %v", fCost, iCost)
	}
}

func TestIntWinOps(t *testing.T) {
	c := cluster(t, 2)
	w, err := NewIntWin(c, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(r *dm.Rank) {
		if r.ID == 0 {
			if prev := w.FAA(r, 1, 2, 5); prev != 0 {
				t.Errorf("FAA prev = %d", prev)
			}
			if prev := w.FAA(r, 1, 2, 3); prev != 5 {
				t.Errorf("FAA prev = %d", prev)
			}
			if !w.CAS(r, 1, 3, 0, 42) {
				t.Error("CAS failed")
			}
			if w.CAS(r, 1, 3, 0, 7) {
				t.Error("stale CAS succeeded")
			}
			w.Put(r, 1, 0, 11)
			w.Flush(r, 1)
		}
		c.Barrier(r)
		if r.ID == 1 {
			if got := w.Get(r, 1, 2); got != 8 {
				t.Errorf("FAA total = %d", got)
			}
			local := w.Local(r)
			if local[0] != 11 || local[3] != 42 {
				t.Errorf("local = %v", local)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAccumulates(t *testing.T) {
	const p = 4
	c := cluster(t, p)
	w, _ := NewFloatWin(c, []int{1, 0, 0, 0})
	if err := c.Run(func(r *dm.Rank) {
		for i := 0; i < 1000; i++ {
			w.Accumulate(r, 0, 0, 1)
		}
		c.Barrier(r)
		if r.ID == 0 {
			if got := w.Get(r, 0, 0); got != 4000 {
				t.Errorf("sum = %v, want 4000", got)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
