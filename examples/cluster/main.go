// Example cluster: a client of the cluster tier (pushpull route).
//
// It drives the router exactly like examples/service drives a single
// worker — same API, that is the point — and asserts the cluster
// contracts on top: the uploaded graph is replicated (the router's
// catalog lists its replica set), routed runs come back with the serving
// worker named in X-Cluster-Worker, a repeated identical run is answered
// from whichever replica's result cache owns it, re-uploading different
// content under the same name yields fresh results (cross-process
// invalidation), and a DELETE leaves the graph 404 on the router. The
// program exits non-zero when any contract is violated, so CI uses it as
// the upload-and-verify phase of the cluster smoke (the "demo" graph is
// left registered for the failover phase the CI script runs by killing
// the primary worker):
//
//	pushpull serve -addr 127.0.0.1:18091 &
//	pushpull serve -addr 127.0.0.1:18092 &
//	pushpull route -addr 127.0.0.1:18090 \
//	    -workers http://127.0.0.1:18091,http://127.0.0.1:18092 &
//	go run ./examples/cluster -addr http://127.0.0.1:18090
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"pushpull"
	"pushpull/api"
	"pushpull/cluster"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8090", "router base URL")
	flag.Parse()
	client := &http.Client{Timeout: 2 * time.Minute}

	// Upload a locally generated workload through the router; the
	// response is the placement record, not just the graph info.
	g, err := pushpull.RMAT(pushpull.DefaultRMAT(12, 8, 7))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	pl := upload(client, *addr, "demo", g)
	fmt.Printf("uploaded demo: n=%d m=%d epoch=%d replicas=%v\n", pl.N, pl.M, pl.Epoch, pl.Replicas)
	if len(pl.Replicas) == 0 {
		log.Fatal("router reported an empty replica set")
	}

	// Route a run and note which worker served it.
	resp, worker := run(client, *addr, "demo", "pr", http.StatusOK)
	fmt.Printf("pr via %s: %s\n", worker, resp.Summary)

	// The identical run again: some replica (often the same one) owns
	// the cached result now. The cluster tier must keep answering —
	// cache hit or fresh run are both legal, failure is not.
	resp, worker = run(client, *addr, "demo", "pr", http.StatusOK)
	fmt.Printf("pr again via %s: cache_hit=%v\n", worker, resp.Stats.CacheHit)

	// Cross-process invalidation: re-PUT different content under the
	// same name, then verify a routed run reflects the new graph.
	g2, err := pushpull.RMAT(pushpull.DefaultRMAT(12, 8, 99))
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	before, _ := run(client, *addr, "demo", "tc", http.StatusOK)
	pl2 := upload(client, *addr, "demo", g2)
	if pl2.Epoch <= pl.Epoch {
		log.Fatalf("re-upload did not advance the epoch: %d -> %d", pl.Epoch, pl2.Epoch)
	}
	after, _ := run(client, *addr, "demo", "tc", http.StatusOK)
	if after.Stats.CacheHit {
		log.Fatal("run after re-upload was served a stale cached result")
	}
	fmt.Printf("re-upload invalidated: tc %s -> %s (epoch %d)\n",
		total(before.Counts), total(after.Counts), pl2.Epoch)

	// Restore the first graph so the CI failover phase runs against the
	// content this program reported, then verify the lifecycle on a
	// scratch name: upload, delete, 404.
	upload(client, *addr, "demo", g)
	upload(client, *addr, "scratch", g2)
	del, err := http.NewRequest(http.MethodDelete, *addr+"/graphs/scratch", nil)
	if err != nil {
		log.Fatalf("delete: %v", err)
	}
	dresp, err := client.Do(del)
	if err != nil {
		log.Fatalf("delete: %v", err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		log.Fatalf("DELETE scratch: got %d, want 204", dresp.StatusCode)
	}
	run(client, *addr, "scratch", "pr", http.StatusNotFound)
	fmt.Println("lifecycle ok: scratch deleted cluster-wide, runs 404")
}

func upload(client *http.Client, addr, name string, g *pushpull.Graph) cluster.Placement {
	var buf bytes.Buffer
	if err := pushpull.WriteWorkload(&buf, pushpull.NewWorkload(g)); err != nil {
		log.Fatalf("encode: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut, addr+"/graphs/"+name, &buf)
	if err != nil {
		log.Fatalf("upload %s: %v", name, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		log.Fatalf("upload %s: %v", name, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		log.Fatalf("upload %s: got %d: %s", name, resp.StatusCode, body)
	}
	var pl cluster.Placement
	if err := json.Unmarshal(body, &pl); err != nil {
		log.Fatalf("upload %s: parsing placement: %v", name, err)
	}
	return pl
}

func run(client *http.Client, addr, graph, algo string, want int) (api.RunResponse, string) {
	body, _ := json.Marshal(map[string]any{"graph": graph, "algorithm": algo})
	resp, err := client.Post(addr+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("run %s/%s: %v", graph, algo, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		log.Fatalf("run %s/%s: got %d, want %d: %s", graph, algo, resp.StatusCode, want, raw)
	}
	var rr api.RunResponse
	if want == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			log.Fatalf("run %s/%s: parsing response: %v", graph, algo, err)
		}
	}
	return rr, resp.Header.Get(cluster.WorkerHeader)
}

func total(counts []int64) string {
	var sum int64
	for _, c := range counts {
		sum += c
	}
	return fmt.Sprintf("%d triangles", sum/3)
}
