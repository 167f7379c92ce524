//go:build unix

package atomicfile_test

// Kill tests: the stores' crash promise, checked by killing a real
// process. The test binary re-executes itself as a child (TestMain reads
// the child's orders from the environment), which writes through a
// store and stops itself with SIGKILL at a named step of a file
// replacement. The parent reopens the store and checks that every file
// holds its old or its new content, that every write the child saw
// return is there, and that no temp is left. A killed process is all
// this simulates: a power loss, which can lose a rename the file system
// had not written back, is not, and nothing here claims to survive one.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/internal/atomicfile"
	"pushpull/jobs"
)

// The child's orders: which store, which step to die at, and the store
// directory.
const (
	envStore = "ATOMICFILE_KILL_STORE"
	envStep  = "ATOMICFILE_KILL_STEP"
	envDir   = "ATOMICFILE_KILL_DIR"
)

func TestMain(m *testing.M) {
	if store := os.Getenv(envStore); store != "" {
		killChild(store, os.Getenv(envStep), os.Getenv(envDir))
		// The hook did not fire at the step: the parent sees a clean exit
		// and fails.
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// killChild does the child's writes: first the ones that must survive,
// each reported on stdout once it returned, then one that dies at step.
func killChild(store, step, dir string) {
	die := func() {
		atomicfile.SetHook(func(s string) {
			if s == step {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
				select {}
			}
		})
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	switch store {
	case "graph":
		s, err := pushpull.NewDiskStore(dir)
		if err != nil {
			fail(err)
		}
		if err := s.Put("kept", graphOf(3)); err != nil {
			fail(err)
		}
		fmt.Println("kept")
		die()
		s.Put("g", graphOf(2))
	case "graph-delete":
		s, err := pushpull.NewDiskStore(dir)
		if err != nil {
			fail(err)
		}
		die()
		s.Delete("g")
	case "jobs":
		s, err := jobs.NewDiskJobStore(dir)
		if err != nil {
			fail(err)
		}
		if err := s.Put(&jobs.Job{ID: "j-kept", State: jobs.StateQueued, Spec: spec}); err != nil {
			fail(err)
		}
		fmt.Println("j-kept")
		if err := s.PutPayload(payloadHash, []byte(payload)); err != nil {
			fail(err)
		}
		fmt.Println(payloadHash)
		die()
		s.Put(&jobs.Job{ID: "j-old", State: jobs.StateDone, Spec: spec, Payload: payloadHash})
	}
}

var spec = jobs.Spec{Graph: "g", Algorithm: "pr", Options: api.RunOptions{Iterations: 2}}

const (
	payload     = `"ranks":[0.5,0.5]}`
	payloadHash = "00ff"
)

// graphOf is a small graph both processes build alike from its seed.
func graphOf(seed uint64) *pushpull.Workload {
	g, err := pushpull.ErdosRenyi(300, 4, seed)
	if err != nil {
		panic(err)
	}
	return pushpull.NewWorkload(g)
}

// runChild runs one child to its death and returns what it reported
// done and the temps it left.
func runChild(t *testing.T, store, step, dir string) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), envStore+"="+store, envStep+"="+step, envDir+"="+dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ws, ok := cmd.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("%s child at %q was not killed: %v; stderr: %s", store, step, err, stderr.String())
	}
	left := temps(t, dir)
	// Before the rename the child dies with its temp in place: that is
	// the file the reopen must reclaim.
	if want := step == "write" || step == "closed"; (len(left) == 1) != want {
		t.Fatalf("%s child at %q left temps %v", store, step, left)
	}
	return strings.Fields(stdout.String())
}

// TestKillGraphStore: a DiskStore Put killed during the temp write,
// after the temp is closed, and after the rename but before the stale
// formats are removed. The name's old content is a .csr file, or a file
// of an older store: a text .el, or a v1 .blk (testdata/legacy.blk).
func TestKillGraphStore(t *testing.T) {
	const legacyID = "w6892f17a95e00015-n200"
	old, neu, kept := graphOf(1), graphOf(2), graphOf(3)
	legacy, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy.blk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"write", "closed", "renamed"} {
		for _, format := range []string{".csr", ".el", ".blk"} {
			t.Run(step+format, func(t *testing.T) {
				dir := t.TempDir()
				s, err := pushpull.NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				oldID := old.ID()
				switch format {
				case ".csr":
					err = s.Put("g", old)
				case ".el":
					var text bytes.Buffer
					if err = pushpull.WriteWorkload(&text, old); err == nil {
						err = os.WriteFile(filepath.Join(dir, "g.el"), text.Bytes(), 0o644)
					}
				case ".blk":
					oldID = legacyID
					err = os.WriteFile(filepath.Join(dir, "g.blk"), legacy, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
				if done := runChild(t, "graph", step, dir); len(done) != 1 || done[0] != "kept" {
					t.Fatalf("child reported %v, want [kept]", done)
				}
				if format != ".csr" {
					if _, err := os.Stat(filepath.Join(dir, "g"+format)); err != nil {
						t.Fatalf("the old g%s is gone after a kill at %q: %v", format, step, err)
					}
				}

				s, err = pushpull.NewDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				if left := temps(t, dir); len(left) != 0 {
					t.Fatalf("reopened store holds temps %v", left)
				}
				names, err := s.Names()
				if err != nil || strings.Join(names, ",") != "g,kept" {
					t.Fatalf("Names() = %v, %v; want [g kept]", names, err)
				}
				want := oldID
				if step == "renamed" {
					want = neu.ID()
				}
				for name, id := range map[string]string{"g": want, "kept": kept.ID()} {
					got, err := s.Get(name)
					if err != nil {
						t.Fatalf("Get(%q) after a kill at %q: %v", name, step, err)
					}
					gotID := got.ID()
					got.Close()
					if gotID != id {
						t.Fatalf("Get(%q) after a kill at %q holds %s, want %s", name, step, gotID, id)
					}
				}
			})
		}
	}
}

// TestKillGraphStoreDelete: a DiskStore Delete killed after its first
// removal, on a name that holds a .csr and the stale .el a Put killed
// before its stale-format removal left. The name is gone or holds the
// .csr's content; the older .el's never comes back.
func TestKillGraphStoreDelete(t *testing.T) {
	old, neu := graphOf(1), graphOf(2)
	dir := t.TempDir()
	s, err := pushpull.NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := pushpull.WriteWorkload(&text, old); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("g", neu); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "g.el"), text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	runChild(t, "graph-delete", "removed", dir)

	if s, err = pushpull.NewDiskStore(dir); err != nil {
		t.Fatal(err)
	}
	names, err := s.Names()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		return
	}
	got, err := s.Get("g")
	if err != nil {
		t.Fatalf("Get after a killed Delete: %v", err)
	}
	if got.ID() != neu.ID() {
		t.Fatalf("a killed Delete left g holding %s, want %s or no g", got.ID(), neu.ID())
	}
}

// TestKillJobStore: a DiskJobStore Put killed during the temp write,
// after the temp is closed, and after the rename. Every record and
// payload whose Put returned survives, and the record being replaced
// reads old or new, never refused.
func TestKillJobStore(t *testing.T) {
	for _, step := range []string{"write", "closed", "renamed"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			s, err := jobs.NewDiskJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(&jobs.Job{ID: "j-old", State: jobs.StateQueued, Spec: spec}); err != nil {
				t.Fatal(err)
			}
			if done := runChild(t, "jobs", step, dir); strings.Join(done, ",") != "j-kept,"+payloadHash {
				t.Fatalf("child reported %v, want [j-kept %s]", done, payloadHash)
			}

			if s, err = jobs.NewDiskJobStore(dir); err != nil {
				t.Fatal(err)
			}
			if left := temps(t, dir); len(left) != 0 {
				t.Fatalf("reopened store holds temps %v", left)
			}
			list, err := s.List()
			if err != nil {
				t.Fatalf("List after a kill at %q: %v", step, err)
			}
			states := map[string]jobs.State{}
			for _, j := range list {
				states[j.ID] = j.State
			}
			want := jobs.StateQueued
			if step == "renamed" {
				want = jobs.StateDone
			}
			if len(states) != 2 || states["j-kept"] != jobs.StateQueued || states["j-old"] != want {
				t.Fatalf("records after a kill at %q: %v; want j-kept queued and j-old %s", step, states, want)
			}
			r, n, err := s.OpenPayload(payloadHash)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var b bytes.Buffer
			if _, err := b.ReadFrom(r); err != nil || n != int64(len(payload)) || b.String() != payload {
				t.Fatalf("payload after a kill at %q: %q (%d bytes), %v", step, b.String(), n, err)
			}
		})
	}
}

// TestSweepOnRestart: the temps a killed writer left in the graph store
// and in the job store are gone once a restarted process has attached
// them, and nothing else is: a graph, a graph whose name starts with a
// dot (stored as %2Ehidden.csr), a job record and its payload, a foreign
// dotfile and the job store's own subdirectory.
func TestSweepOnRestart(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs")
	open := func() (*pushpull.Engine, *jobs.Manager) {
		t.Helper()
		gs, err := pushpull.NewDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		eng := pushpull.NewEngine()
		if err := eng.AttachStore(gs); err != nil {
			t.Fatal(err)
		}
		js, err := jobs.NewDiskJobStore(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := jobs.NewManager(eng, jobs.WithStore(js))
		if err != nil {
			t.Fatal(err)
		}
		return eng, m
	}
	eng, m := open()
	for _, name := range []string{"g", ".hidden"} {
		if err := eng.RegisterWorkload(name, graphOf(1)); err != nil {
			t.Fatal(err)
		}
	}
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = m.Wait(context.Background(), j.ID, time.Millisecond); err != nil || j.State != jobs.StateDone {
		t.Fatalf("job: %+v, %v; want done", j, err)
	}
	m.Close()

	planted := []string{filepath.Join(dir, ".put-123"), filepath.Join(jobDir, ".put-456")}
	kept := []string{
		filepath.Join(dir, "g.csr"),
		filepath.Join(dir, "%2Ehidden.csr"),
		filepath.Join(dir, ".keep"),
		filepath.Join(jobDir, j.ID+".job"),
		filepath.Join(jobDir, "payloads", j.Payload),
	}
	for _, path := range append(planted, filepath.Join(dir, ".keep")) {
		if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng, m = open()
	defer m.Close()
	for _, path := range planted {
		if _, err := os.Stat(path); err == nil {
			t.Errorf("temp %s survived the restart", path)
		}
	}
	for _, path := range kept {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("restart lost %s: %v", path, err)
		}
	}
	if names := eng.WorkloadNames(); strings.Join(names, ",") != ".hidden,g" {
		t.Errorf("restored graphs %v, want [.hidden g]", names)
	}
	if _, err := m.Result(j.ID); err != nil {
		t.Errorf("restored job's result: %v", err)
	}
}
