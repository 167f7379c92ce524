// Example service: a client of the HTTP serving front (pushpull serve).
//
// It uploads a locally generated RMAT workload in the portable edge-list
// format, lists the algorithm registry, then issues the same PageRank
// run twice — the first executes the kernels, the second must be
// answered from the engine's result cache (stats.cache_hit). It then
// fires a burst of concurrent identical requests (fresh options, so
// nothing is cached yet) to show single-flight dedup: exactly one must
// execute for real, the rest arrive coalesced or as cache hits. Finally
// it uploads a scratch graph and DELETEs it again, asserting runs
// against it 404 afterwards. The program exits non-zero when any of
// these contracts is violated, so CI can use it as the end-to-end serve
// smoke — and, run against a `-store`-backed server, as the upload phase
// of the persistence smoke (the "demo" graph is left registered):
//
//	pushpull serve -addr 127.0.0.1:18080 &
//	go run ./examples/service -addr http://127.0.0.1:18080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"pushpull"
	"pushpull/api"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "serving-front base URL")
	flag.Parse()
	client := &http.Client{Timeout: 2 * time.Minute}

	// Generate a small workload locally and upload it: the edge-list
	// header carries the graph kind, so the server reconstructs the same
	// Workload handle this process would run on.
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(12, 8, 7))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(g)); err != nil {
		log.Fatalf("serialize: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut, *addr+"/graphs/demo", &buf)
	if err != nil {
		log.Fatalf("upload request: %v", err)
	}
	body := do(client, req, http.StatusCreated)
	fmt.Printf("uploaded: %s", body)

	var algos []struct {
		Name string `json:"name"`
	}
	mustJSON(do(client, get(*addr+"/algorithms"), http.StatusOK), &algos)
	fmt.Printf("registry: %d algorithms\n", len(algos))

	// The same request twice: first a real run, then a cache hit.
	runBody := `{"graph": "demo", "algorithm": "pr", "options": {"direction": "pull", "iterations": 20}}`
	var first, second api.RunResponse
	mustJSON(do(client, post(*addr+"/run", runBody), http.StatusOK), &first)
	fmt.Printf("run 1: %s (cache_hit=%v, %v)\n",
		first.Summary, first.Stats.CacheHit, time.Duration(first.Stats.ElapsedNS))
	mustJSON(do(client, post(*addr+"/run", runBody), http.StatusOK), &second)
	fmt.Printf("run 2: %s (cache_hit=%v)\n", second.Summary, second.Stats.CacheHit)

	if first.Stats.CacheHit {
		log.Fatal("first run was served from cache; expected a real run")
	}
	if !second.Stats.CacheHit {
		log.Fatal("second identical run was not served from cache")
	}

	// Single-flight: a burst of concurrent identical requests with fresh
	// options (nothing cached for them yet) must execute exactly once —
	// every other response arrives coalesced onto that run, or as a cache
	// hit if it was scheduled only after the run completed.
	const burst = 6
	burstBody := `{"graph": "demo", "algorithm": "pr", "options": {"direction": "push", "iterations": 30}}`
	var wg sync.WaitGroup
	results := make([]api.RunResponse, burst)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mustJSON(do(client, post(*addr+"/run", burstBody), http.StatusOK), &results[i])
		}(i)
	}
	wg.Wait()
	var real, coalesced, hits int
	for _, r := range results {
		switch {
		case r.Stats.Coalesced:
			coalesced++
		case r.Stats.CacheHit:
			hits++
		default:
			real++
		}
	}
	fmt.Printf("burst of %d identical runs: %d executed, %d coalesced, %d cache hits\n",
		burst, real, coalesced, hits)
	if real != 1 {
		log.Fatalf("single-flight violated: %d of %d concurrent identical runs executed", real, burst)
	}

	// Async jobs: a batch submitted to POST /jobs returns immediately with
	// one batch ID; each job is then polled to a terminal state and the
	// result fetched separately — the same RunResponse a synchronous /run
	// would have returned.
	var batch struct {
		BatchID string `json:"batch_id"`
		Jobs    []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	batchBody := `{"batch": [
		{"graph": "demo", "algorithm": "pr", "priority": "high", "options": {"iterations": 10}},
		{"graph": "demo", "algorithm": "bfs", "options": {"source": 0}},
		{"graph": "demo", "algorithm": "tc", "priority": "low"}
	]}`
	mustJSON(do(client, post(*addr+"/jobs", batchBody), http.StatusAccepted), &batch)
	if batch.BatchID == "" || len(batch.Jobs) != 3 {
		log.Fatalf("batch submission returned %+v; want a batch ID and 3 jobs", batch)
	}
	fmt.Printf("batch %s accepted: %d jobs\n", batch.BatchID, len(batch.Jobs))
	for _, bj := range batch.Jobs {
		var j struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		deadline := time.Now().Add(time.Minute)
		for {
			mustJSON(do(client, get(*addr+"/jobs/"+bj.ID), http.StatusOK), &j)
			if j.State == "done" {
				break
			}
			if j.State == "failed" || j.State == "canceled" || j.State == "interrupted" {
				log.Fatalf("job %s ended %s (%s); want done", bj.ID, j.State, j.Error)
			}
			if time.Now().After(deadline) {
				log.Fatalf("job %s still %s after a minute", bj.ID, j.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
		var jr api.RunResponse
		mustJSON(do(client, get(*addr+"/jobs/"+bj.ID+"/result"), http.StatusOK), &jr)
		fmt.Printf("job %s: done — %s\n", bj.ID, jr.Summary)
	}

	// Graph lifecycle: a scratch upload can be DELETEd again, after which
	// runs against it 404. The "demo" graph stays registered — a
	// store-backed server persists it across restarts.
	var scratch bytes.Buffer
	tiny, err := pushpull.ErdosRenyi(64, 4, 7)
	if err != nil {
		log.Fatalf("generate scratch: %v", err)
	}
	if err := pushpull.WriteWorkload(&scratch, pushpull.NewWorkload(tiny)); err != nil {
		log.Fatalf("serialize scratch: %v", err)
	}
	req, err = http.NewRequest(http.MethodPut, *addr+"/graphs/scratch", &scratch)
	if err != nil {
		log.Fatalf("upload request: %v", err)
	}
	do(client, req, http.StatusCreated)
	req, err = http.NewRequest(http.MethodDelete, *addr+"/graphs/scratch", nil)
	if err != nil {
		log.Fatalf("delete request: %v", err)
	}
	do(client, req, http.StatusNoContent)
	do(client, post(*addr+"/run", `{"graph": "scratch", "algorithm": "pr"}`), http.StatusNotFound)
	fmt.Println("scratch graph uploaded, deleted, and verified gone")

	fmt.Printf("engine stats: %s", do(client, get(*addr+"/stats"), http.StatusOK))
}

func get(url string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Fatalf("request %s: %v", url, err)
	}
	return req
}

func post(url, body string) *http.Request {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatalf("request %s: %v", url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	return req
}

func do(client *http.Client, req *http.Request, wantStatus int) []byte {
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("%s %s: reading body: %v", req.Method, req.URL, err)
	}
	if resp.StatusCode != wantStatus {
		log.Fatalf("%s %s: status %d (want %d): %s", req.Method, req.URL, resp.StatusCode, wantStatus, body)
	}
	return body
}

func mustJSON(body []byte, into any) {
	if err := json.Unmarshal(body, into); err != nil {
		log.Fatalf("parsing %q: %v", body, err)
	}
}
