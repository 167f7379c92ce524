package harness

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
)

// tinyConfig runs experiments fast enough for the test suite.
func tinyConfig(buf *bytes.Buffer) Config {
	return Config{Threads: 2, Scale: 0.05, Seed: 7, Out: buf}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 14 {
		t.Fatalf("registry has %d experiments, want 14", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("table1"); !ok {
		t.Fatal("ByID(table1) failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID(nope) succeeded")
	}
	ids := IDs()
	if len(ids) != len(all) {
		t.Fatalf("IDs() has %d entries", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
}

// Every experiment must run to completion at tiny scale and produce its
// banner plus substantive output.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(tinyConfig(&buf)); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if !strings.Contains(out, "== ") {
				t.Fatalf("%s: missing banner:\n%s", e.ID, out)
			}
			if len(out) < 100 {
				t.Fatalf("%s: suspiciously short output:\n%s", e.ID, out)
			}
		})
	}
}

func TestTable2ListsAllWorkloads(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"rmat"}, workloadNames...) {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("table2 missing %s:\n%s", name, buf.String())
		}
	}
}

func TestTable1HasAllEventRows(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"L1 misses", "L3 misses", "TLB misses (data)",
		"atomics", "locks", "reads", "writes", "branches (cond)"} {
		if !strings.Contains(out, row) {
			t.Fatalf("table1 missing row %q", row)
		}
	}
	for _, col := range []string{"orc (PR) Push", "orc (PR) Push+PA", "rca (PR) Pull",
		"ljn (TC) Push", "orc (BGC) Pull", "pok (SSSP) Push"} {
		if !strings.Contains(out, col) {
			t.Fatalf("table1 missing column %q", col)
		}
	}
}

// Table 1 runs only the profiled twins on a simulated machine, so its
// output is deterministic. The digest was taken before the fast push
// kernels were merged into one; the Push and Push+PA columns bill
// Algorithms 1 and 8 and must not move with the fast kernel.
func TestTable1Pinned(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got, want := h.Sum64(), uint64(0x92e4f63935154984); got != want {
		t.Fatalf("table1 digest %#x, want %#x:\n%s", got, want, buf.String())
	}
}

func TestFig3CoversBothKernels(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"PR, orc", "PR, ljn", "PR, rmat", "TC, orc", "TC, ljn",
		"Pushing-RMA", "Pulling-RMA", "Msg-Passing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig3 missing %q", want)
		}
	}
}

func TestFig6ReportsStrategies(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(tinyConfig(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Push", "Push+PA", "Pull", "+FE", "+GS", "+GrS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 missing %q", want)
		}
	}
}

func TestGraphCacheReuses(t *testing.T) {
	var buf bytes.Buffer
	cfg := tinyConfig(&buf)
	g1, err := loadGraph("orc", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := loadGraph("orc", cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("cache miss for identical key")
	}
	g3, err := loadGraph("orc", cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatal("weighted and unweighted shared a cache slot")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.Threads < 1 || c.Scale != 1 || c.Seed == 0 || c.Out == nil {
		t.Fatalf("defaults = %+v", c)
	}
}
