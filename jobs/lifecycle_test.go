package jobs_test

// Lifecycle tests for the result path and retention: a job that reads
// done always has a result to fetch, terminal jobs are collected by count
// and by age together with the payloads nobody refers to any more, all
// of it across a restart, and an engine-hit job costs the same number of
// allocations whatever the size of its result.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/jobs"
)

// newCachingEngine builds an engine at serving defaults (result cache
// on), changed by opts, with an n-vertex graph registered as "g".
func newCachingEngine(t testing.TB, n int, opts ...pushpull.EngineOption) *pushpull.Engine {
	t.Helper()
	g, err := pushpull.ErdosRenyi(n, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	eng := pushpull.NewEngine(opts...)
	if err := eng.RegisterWorkload("g", pushpull.NewWorkload(g)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// prSpec is a pull PageRank of the given length: distinct lengths have
// distinct payloads, equal lengths hit the engine cache.
func prSpec(iterations int) jobs.Spec {
	return jobs.Spec{Graph: "g", Algorithm: "pr",
		Options: api.RunOptions{Direction: "pull", Threads: 1, Iterations: iterations}}
}

// runJob submits spec and waits for it to end done.
func runJob(t testing.TB, m *jobs.Manager, spec jobs.Spec) *jobs.Job {
	t.Helper()
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = m.Wait(context.Background(), j.ID, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateDone {
		t.Fatalf("job %s ended %s (%s), want done", j.ID, j.State, j.Error)
	}
	return j
}

// storeFiles lists the record IDs and payload hashes under a
// DiskJobStore directory.
func storeFiles(t *testing.T, dir string) (records, payloads []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".job"); ok {
			records = append(records, name)
		}
	}
	if entries, err = os.ReadDir(filepath.Join(dir, "payloads")); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		payloads = append(payloads, e.Name())
	}
	return records, payloads
}

// TestDoneImpliesResult: done is recorded only once the result can be
// fetched, so a poller that reads done never then sees ErrNotDone — from
// four clients at once, over misses and engine hits alike.
func TestDoneImpliesResult(t *testing.T) {
	store, err := jobs.NewDiskJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(newCachingEngine(t, 2048), jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j, err := m.Submit(prSpec(1 + (c+i)%3))
				if err != nil {
					t.Error(err)
					return
				}
				for {
					got, err := m.Get(j.ID)
					if err != nil {
						t.Error(err)
						return
					}
					if got.State == jobs.StateDone {
						break
					}
					if got.State.Terminal() {
						t.Errorf("job %s ended %s: %s", j.ID, got.State, got.Error)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
				res, err := m.Result(j.ID)
				if err != nil {
					t.Errorf("job %s read done, then Result: %v", j.ID, err)
					return
				}
				var resp api.RunResponse
				if err := json.Unmarshal(res, &resp); err != nil || len(resp.Ranks) != 2048 || resp.Graph != "g" {
					t.Errorf("job %s result: %v, %d ranks on %q", j.ID, err, len(resp.Ranks), resp.Graph)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := m.Stats()
	if st.Done != 100 || st.Retained != 100 || st.PayloadFiles != 3 {
		t.Errorf("stats %+v, want 100 done and retained over 3 payload files", st)
	}
}

// TestRetentionCount: past the count bound the oldest terminal jobs go —
// from the manager and from disk — a payload goes with its last referrer
// and not before, and a successor over the same store agrees on all of it.
func TestRetentionCount(t *testing.T) {
	const keep = 3
	dir := t.TempDir()
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := newCachingEngine(t, 512)
	m, err := jobs.NewManager(eng, jobs.WithStore(store), jobs.WithRetention(keep, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	// A recovering manager orders terminal jobs by their millisecond
	// finish stamps, so each job here finishes in a millisecond of its
	// own: between equal stamps, which job is oldest is not recorded.
	run := func(m *jobs.Manager, spec jobs.Spec) *jobs.Job {
		j := runJob(t, m, spec)
		for time.Now().UnixMilli() <= j.FinishedMS {
			time.Sleep(100 * time.Microsecond)
		}
		return j
	}
	// One job with payload A, then keep+1 sharing payload B: A's job and
	// the first B are collected.
	all := []*jobs.Job{run(m, prSpec(1))}
	for i := 0; i < keep+1; i++ {
		all = append(all, run(m, prSpec(2)))
	}
	evicted, kept := all[:2], all[2:]
	if all[0].Payload == all[1].Payload || all[1].Payload != all[2].Payload {
		t.Fatalf("payload hashes %q %q %q: want A, B, B", all[0].Payload, all[1].Payload, all[2].Payload)
	}
	want := make(map[string][]byte)

	check := func(m *jobs.Manager, wantEvicted uint64) {
		t.Helper()
		for _, j := range evicted {
			if _, err := m.Get(j.ID); !errors.Is(err, jobs.ErrNotFound) {
				t.Errorf("Get(collected %s) = %v, want ErrNotFound", j.ID, err)
			}
			if _, err := m.Result(j.ID); !errors.Is(err, jobs.ErrNotFound) {
				t.Errorf("Result(collected %s) = %v, want ErrNotFound", j.ID, err)
			}
		}
		for _, j := range kept {
			res, err := m.Result(j.ID)
			if err != nil {
				t.Fatalf("Result(kept %s): %v", j.ID, err)
			}
			if prev, ok := want[j.ID]; ok && !bytes.Equal(res, prev) {
				t.Errorf("result of %s changed across the restart", j.ID)
			}
			want[j.ID] = res
		}
		if st := m.Stats(); st.Retained != keep || st.Done != keep || st.Evicted != wantEvicted || st.PayloadFiles != 1 || st.PayloadBytes == 0 {
			t.Errorf("stats %+v, want %d retained, %d evicted, 1 payload file", st, keep, wantEvicted)
		}
		records, payloads := storeFiles(t, dir)
		if len(records) != keep {
			t.Errorf("%d records on disk, want %d: %v", len(records), keep, records)
		}
		if len(payloads) != 1 || payloads[0] != kept[0].Payload {
			t.Errorf("payload files %v, want only the still-referenced %s", payloads, kept[0].Payload)
		}
	}
	check(m, 2)
	m.Close()

	// An orphan: stored, its record never written.
	if err := os.WriteFile(filepath.Join(dir, "payloads", "0123abcd"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := jobs.NewManager(eng, jobs.WithStore(store), jobs.WithRetention(keep, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	check(m2, 0)
	// Collection continues where the predecessor stopped: the next job
	// pushes out the oldest recovered one.
	evicted, kept = append(evicted, kept[0]), append(kept[1:], run(m2, prSpec(2)))
	check(m2, 1)
	m2.Close()

	// A tighter bound applies to what a successor finds.
	m3, err := jobs.NewManager(eng, jobs.WithStore(store), jobs.WithRetention(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if st := m3.Stats(); st.Retained != 1 || st.Evicted != keep-1 {
		t.Errorf("stats under keep=1: %+v, want 1 retained, %d evicted", st, keep-1)
	}
	if _, err := m3.Result(kept[len(kept)-1].ID); err != nil {
		t.Errorf("newest job did not survive the tighter bound: %v", err)
	}
}

// TestRetentionTTL: with nothing else happening, terminal jobs leave when
// their time is up, and the last payload with them.
func TestRetentionTTL(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(newCachingEngine(t, 512), jobs.WithStore(store), jobs.WithRetention(100, 40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := []string{runJob(t, m, prSpec(1)).ID, runJob(t, m, prSpec(2)).ID}
	deadline := time.Now().Add(10 * time.Second)
	for m.Stats().Retained > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("jobs still retained long after their TTL: %+v", m.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		if _, err := m.Get(id); !errors.Is(err, jobs.ErrNotFound) {
			t.Errorf("Get(expired %s) = %v, want ErrNotFound", id, err)
		}
	}
	// Records and payloads leave with the collection; the loop only gives
	// a slow disk its time.
	for {
		records, payloads := storeFiles(t, dir)
		if len(records) == 0 && len(payloads) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("left on disk after expiry: records %v, payloads %v", records, payloads)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := m.Stats(); st.Evicted != 2 || st.PayloadFiles != 0 || st.PayloadBytes != 0 {
		t.Errorf("stats %+v, want 2 evicted and no payloads", st)
	}
}

// deleteGateStore is a MemJobStore whose DeletePayload announces the hash
// on entered and then waits for release to close.
type deleteGateStore struct {
	*jobs.MemJobStore
	entered chan string
	release chan struct{}
}

func (s *deleteGateStore) DeletePayload(hash string) error {
	s.entered <- hash
	<-s.release
	return s.MemJobStore.DeletePayload(hash)
}

// TestRetentionEvictsPayloadBeforeDone: a finish that pushes an older job
// out deletes that job's payload before the finish is visible, so no poll
// reads done while the store still holds what the finish evicted. A store
// whose payload delete blocks holds that moment open.
func TestRetentionEvictsPayloadBeforeDone(t *testing.T) {
	store := &deleteGateStore{MemJobStore: jobs.NewMemJobStore(), entered: make(chan string, 1), release: make(chan struct{})}
	m, err := jobs.NewManager(newCachingEngine(t, 512), jobs.WithStore(store), jobs.WithRetention(1, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var once sync.Once
	open := func() { once.Do(func() { close(store.release) }) }
	defer open()

	old := runJob(t, m, prSpec(1))
	next, err := m.Submit(prSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case hash := <-store.entered:
		if hash != old.Payload {
			t.Fatalf("deleting payload %s, want the evicted job's %s", hash, old.Payload)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the second job's finish deleted no payload")
	}
	polled := make(chan *jobs.Job, 1)
	go func() {
		j, err := m.Get(next.ID)
		if err != nil {
			t.Error(err)
		}
		polled <- j
	}()
	select {
	case j := <-polled:
		if j != nil && j.State == jobs.StateDone {
			t.Errorf("job %s reads done while the payload of the job it evicted is still being deleted", j.ID)
		}
	case <-time.After(50 * time.Millisecond):
	}
	open()
	final, err := m.Wait(context.Background(), next.ID, time.Millisecond)
	if err != nil || final.State != jobs.StateDone {
		t.Fatalf("job %s ended %+v, %v; want done", next.ID, final, err)
	}
	payloads, err := store.Payloads()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := payloads[final.Payload]; len(payloads) != 1 || !ok {
		t.Errorf("stored payloads %v, want only %s", payloads, final.Payload)
	}
}

// putGateStore is a MemJobStore whose Put of a done record, once armed,
// announces the job on entered and waits for release to close.
type putGateStore struct {
	*jobs.MemJobStore
	armed   atomic.Bool
	entered chan string
	release chan struct{}
}

func (s *putGateStore) Put(j *jobs.Job) error {
	if j.State == jobs.StateDone && s.armed.Load() {
		s.entered <- j.ID
		<-s.release
	}
	return s.MemJobStore.Put(j)
}

// TestCacheHitJobFreesSlot: a job the engine answers from its cache gives
// its worker slot up as soon as the engine answers, not after its record
// is written: with one worker and that write held open, a synchronous run
// still gets the slot.
func TestCacheHitJobFreesSlot(t *testing.T) {
	store := &putGateStore{MemJobStore: jobs.NewMemJobStore(), entered: make(chan string, 1), release: make(chan struct{})}
	eng := newCachingEngine(t, 512, pushpull.WithWorkers(1))
	m, err := jobs.NewManager(eng, jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var once sync.Once
	open := func() { once.Do(func() { close(store.release) }) }
	defer open()

	runJob(t, m, prSpec(3))
	store.armed.Store(true)
	hit, err := m.Submit(prSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the cache-hit job wrote no done record")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	wl, _ := eng.Workload("g")
	rep, err := eng.Run(ctx, wl, "pr", pushpull.WithDirection(pushpull.Pull), pushpull.WithIterations(4))
	if err != nil || rep.Stats.CacheHit {
		t.Errorf("synchronous run while the cache-hit job records: %v; want a run of its own", err)
	}
	open()
	if j, err := m.Wait(context.Background(), hit.ID, time.Millisecond); err != nil || j.State != jobs.StateDone || !j.Stats.CacheHit {
		t.Fatalf("cache-hit job ended %+v, %v; want done from the cache", j, err)
	}
}

// TestJobAllocsIndependentOfN: an engine-hit job references the cache
// entry's encoded payload and the payload file an earlier job stored; it
// formats and copies nothing whose size depends on the graph. Counted
// both ways: the number of allocations is the same at n = 1k and 64k,
// and so, to within the odd string, is their volume — where one buffer
// for the 64k result would be 1.5 MB.
func TestJobAllocsIndependentOfN(t *testing.T) {
	const runs = 50
	measure := func(n int) (allocs float64, bytesPerJob uint64) {
		store, err := jobs.NewDiskJobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m, err := jobs.NewManager(newCachingEngine(t, n, pushpull.WithWorkers(1)), jobs.WithStore(store))
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		runJob(t, m, prSpec(1)) // the miss that fills the cache
		runJob(t, m, prSpec(1)) // the first hit, which encodes
		// A collection empties the sync.Pools under encoding/json and fmt,
		// and how often one runs depends on the live heap, so on n: keep
		// it out of the measurement.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { runJob(t, m, prSpec(1)) })
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	}
	smallN, smallB := measure(1 << 10)
	largeN, largeB := measure(1 << 16)
	t.Logf("per engine-hit job: %.0f allocations, %d B at n=1k; %.0f allocations, %d B at n=64k", smallN, smallB, largeN, largeB)
	if smallN != largeN && !raceEnabled {
		t.Errorf("allocations per engine-hit job: %.0f at n=1k, %.0f at n=64k; want equal", smallN, largeN)
	}
	if largeB > smallB+4096 {
		t.Errorf("bytes allocated per engine-hit job: %d at n=1k, %d at n=64k; want no growth with n", smallB, largeB)
	}
}

// TestDoneRecordWithoutPayload: a done record that names no payload has
// no result to serve. Recovery marks it failed, naming the record, and
// Result errors instead of serving an empty document.
func TestDoneRecordWithoutPayload(t *testing.T) {
	dir := t.TempDir()
	rec := fmt.Sprintf(`{"id":"j-empty","spec":{"graph":"g","algorithm":"pr"},"state":"done","submitted_ms":1,"finished_ms":%d}`, time.Now().UnixMilli())
	if err := os.WriteFile(filepath.Join(dir, "j-empty.job"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(newCachingEngine(t, 64), jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if j, err := m.Get("j-empty"); err != nil || j.State != jobs.StateFailed || !strings.Contains(j.Error, "j-empty") {
		t.Errorf("recovered done record without a payload: %+v, %v; want failed, naming the record", j, err)
	}
	if got, err := m.Result("j-empty"); err == nil {
		t.Errorf("Result = %q, nil; want an error", got)
	}
	list, err := store.List()
	if err != nil || len(list) != 1 || list[0].State != jobs.StateFailed {
		t.Errorf("store after recovery = %+v, %v; want the record persisted as failed", list, err)
	}
}

// TestRecoveredRetiredAlgorithm: a queued record written before an
// algorithm and an option left the registry and the wire (dist-pr-mp
// with "ranks") still recovers. The decoder drops the unknown option,
// and the job fails naming the algorithm, without running anything.
func TestRecoveredRetiredAlgorithm(t *testing.T) {
	dir := t.TempDir()
	rec := `{"id":"j-dist","spec":{"graph":"g","algorithm":"dist-pr-mp","options":{"ranks":1024}},"state":"queued","submitted_ms":1}`
	if err := os.WriteFile(filepath.Join(dir, "j-dist.job"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := jobs.NewDiskJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := newCachingEngine(t, 64)
	m, err := jobs.NewManager(eng, jobs.WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, "j-dist", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateFailed || !strings.Contains(j.Error, "dist-pr-mp") {
		t.Errorf("recovered dist-pr-mp job: %s (%q), want failed naming the algorithm", j.State, j.Error)
	}
	if s := eng.Stats(); s.CacheMisses != 0 || s.Uncacheable != 0 {
		t.Errorf("engine ran %d cached and %d uncached runs, want none", s.CacheMisses, s.Uncacheable)
	}
}

// TestJobStorePayloads: the payload half of the JobStore contract, on
// both implementations.
func TestJobStorePayloads(t *testing.T) {
	disk, err := jobs.NewDiskJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]jobs.JobStore{"mem": jobs.NewMemJobStore(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			if _, _, err := s.OpenPayload("abc123"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("OpenPayload(unknown) = %v, want fs.ErrNotExist", err)
			}
			data := []byte(`,"ranks":[1,2,3]}`)
			for i := 0; i < 2; i++ { // storing twice is storing once
				if err := s.PutPayload("abc123", data); err != nil {
					t.Fatal(err)
				}
			}
			rc, size, err := s.OpenPayload("abc123")
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(rc)
			rc.Close()
			if size != int64(len(data)) || !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("read back %q (size %d), want %q", buf.Bytes(), size, data)
			}
			if all, err := s.Payloads(); err != nil || len(all) != 1 || all["abc123"] != int64(len(data)) {
				t.Errorf("Payloads() = %v, %v", all, err)
			}
			for i := 0; i < 2; i++ { // deleting twice is not an error
				if err := s.DeletePayload("abc123"); err != nil {
					t.Fatal(err)
				}
			}
			if all, _ := s.Payloads(); len(all) != 0 {
				t.Errorf("Payloads() after delete = %v", all)
			}
		})
	}
	// Hashes come back from records on disk: only hex names a file.
	for _, bad := range []string{"", "../x", "a/b", "ABC", "a.b"} {
		if err := disk.PutPayload(bad, []byte("x")); err == nil {
			t.Errorf("PutPayload(%q) accepted", bad)
		}
		if _, _, err := disk.OpenPayload(bad); err == nil || errors.Is(err, os.ErrNotExist) {
			t.Errorf("OpenPayload(%q) = %v, want a bad-hash error", bad, err)
		}
	}
}
