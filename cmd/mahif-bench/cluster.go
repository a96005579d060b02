package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/replica"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/workload"
)

// clusterOut is the output path of the cluster experiment (flag
// -clusterout).
var clusterOut = "BENCH_cluster.json"

// serveResult is one concurrency level of a load sweep.
type serveResult struct {
	Clients  int   `json:"clients"`
	Requests int   `json:"requests"`
	Errors   int   `json:"errors"`
	P50Us    int64 `json:"p50_us"`
	P95Us    int64 `json:"p95_us"`
	P99Us    int64 `json:"p99_us"`
	MaxUs    int64 `json:"max_us"`
	// ThroughputRps is completed requests per second of wall time.
	ThroughputRps float64 `json:"throughput_rps"`
}

// clusterSweep is the load sweep at one replica count.
type clusterSweep struct {
	// Replicas behind the router; 0 means reads go straight to the
	// leader (the single-node baseline).
	Replicas int           `json:"replicas"`
	Results  []serveResult `json:"results"`
}

// clusterReport is the BENCH_cluster.json document.
type clusterReport struct {
	Description string `json:"description"`
	Rows        int    `json:"rows"`
	Updates     int    `json:"updates"`
	Scenarios   int    `json:"distinct_scenarios"`
	Seed        int64  `json:"seed"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	HostCPUs    int    `json:"host_cpus"`
	// Note records the measurement caveat: every node shares this
	// host's cores, so routed throughput is bounded by HostCPUs — the
	// replica counts only pay off on cores the host actually has.
	Note        string         `json:"note"`
	Sweeps      []clusterSweep `json:"sweeps"`
	KillRestart struct {
		// AppendedWhileDown is how far the history advanced while one
		// replica was killed.
		AppendedWhileDown int `json:"appended_while_down"`
		// CaughtUpVersion is the restarted replica's version after
		// re-bootstrap + streaming (== the leader's).
		CaughtUpVersion int `json:"caught_up_version"`
		// Identical is true when leader and every replica returned
		// byte-identical /v1/whatif bodies after the catch-up.
		Identical bool `json:"identical_responses"`
	} `json:"kill_restart"`
}

// clusterNode is one replica: its follower, serving frontend, and the
// cancel that kills it.
type clusterNode struct {
	rep    *replica.Replica
	ts     *httptest.Server
	cancel context.CancelFunc
}

func startReplica(leaderURL string) (*clusterNode, error) {
	ctx, cancel := context.WithCancel(context.Background())
	rep, err := replica.Bootstrap(ctx, replica.Options{LeaderURL: leaderURL})
	if err != nil {
		cancel()
		return nil, err
	}
	go rep.Run(ctx)
	srv := service.New(rep.Engine(), service.Options{
		Timeout: 30 * time.Second, Role: "replica", ReadOnly: true, Replication: rep,
	})
	return &clusterNode{rep: rep, ts: httptest.NewServer(srv.Handler()), cancel: cancel}, nil
}

func (n *clusterNode) stop() {
	n.cancel()
	n.ts.CloseClientConnections()
	n.ts.Close()
}

func waitVersion(engine *core.Engine, v int) {
	deadline := time.Now().Add(30 * time.Second)
	for engine.Version() < v {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("cluster: replica stuck at version %d, want %d", engine.Version(), v))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clusterExp benchmarks the replicated topology end to end: a durable
// leader, read replicas following its WAL stream, and the router
// spreading a what-if load over them — all real loopback HTTP. Sweeps
// client concurrency at replicas=0 (the single-node baseline) and
// replicas=3, then kills one replica, advances the history, restarts
// it, and checks the restarted follower catches up and answers
// byte-identically to the leader. Reports to BENCH_cluster.json.
func (h *harness) clusterExp() {
	const updates = 50
	ds := workload.Taxi(h.rows, h.seed)
	w := h.gen(ds, workload.Config{Updates: updates})

	dir, err := os.MkdirTemp("", "mahif-cluster-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := persist.Create(dir, ds.Database(), persist.Options{
		NoSync: true, CheckpointEvery: updates / 2,
	})
	if err != nil {
		panic(err)
	}
	defer store.Close()
	engine := core.NewDurable(store)
	if _, err := engine.AppendCtx(context.Background(), []history.Statement(w.History)); err != nil {
		panic(err)
	}
	leaderSrv := service.New(engine, service.Options{Timeout: 30 * time.Second, Store: store, Role: "leader"})
	leaderTS := httptest.NewServer(leaderSrv.Handler())
	defer leaderTS.Close()

	specs := w.ScenarioFamily(32)
	bodies := make([][]byte, len(specs))
	for i, sp := range specs {
		bodies[i] = wireBody(sp.Mods)
	}

	report := &clusterReport{
		Description: "replicated topology over loopback HTTP: /v1/whatif throughput through the router by replica count, plus kill/restart catch-up (Taxi workload, threshold-sweep request family)",
		Rows:        h.rows,
		Updates:     updates,
		Scenarios:   len(specs),
		Seed:        h.seed,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		HostCPUs:    runtime.NumCPU(),
		Note:        "all nodes share one host: aggregate routed throughput is CPU-bound at host_cpus, so replica scaling shows up only when the host has idle cores",
	}

	perClient := 40
	levels := []int{1, 4, 8}
	if h.quick {
		perClient = 10
		levels = []int{1, 4}
	}

	// Every request goes through one client whose timeout bounds a
	// stalled node instead of blocking the experiment.
	client := &http.Client{Timeout: 60 * time.Second}

	// Baseline: replicas=0, reads straight at the leader.
	warm := func(url string) {
		for _, b := range bodies {
			if _, err := doWhatIf(client, url, b); err != nil {
				panic(err)
			}
		}
	}
	warm(leaderTS.URL)
	header("Cluster: baseline (replicas=0, leader only)", "clients", "reqs", "errors", "p50", "p95", "p99", "req/s")
	report.Sweeps = append(report.Sweeps, clusterSweep{Replicas: 0, Results: clusterSweepAt(client, leaderTS.URL, bodies, levels, perClient)})

	// Replicated: 3 followers behind the router.
	const replicas = 3
	nodes := make([]*clusterNode, 0, replicas)
	backends := make([]string, 0, replicas)
	for i := 0; i < replicas; i++ {
		n, err := startReplica(leaderTS.URL)
		if err != nil {
			panic(err)
		}
		defer n.stop()
		nodes = append(nodes, n)
		backends = append(backends, n.ts.URL)
	}
	for _, n := range nodes {
		waitVersion(n.rep.Engine(), engine.Version())
	}
	router, err := replica.NewRouter(replica.RouterOptions{
		LeaderURL: leaderTS.URL, Backends: backends, HealthEvery: 50 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	go router.Run(rctx)
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()
	time.Sleep(200 * time.Millisecond) // let the health poll see everyone
	warm(routerTS.URL)
	header(fmt.Sprintf("Cluster: routed (replicas=%d)", replicas), "clients", "reqs", "errors", "p50", "p95", "p99", "req/s")
	report.Sweeps = append(report.Sweeps, clusterSweep{Replicas: replicas, Results: clusterSweepAt(client, routerTS.URL, bodies, levels, perClient)})

	// Kill one replica, advance the history, restart it, and require
	// catch-up plus byte-identical answers everywhere.
	nodes[0].stop()
	nodes = nodes[1:]
	extra := w.History[:5]
	if _, err := engine.AppendCtx(context.Background(), []history.Statement(extra)); err != nil {
		panic(err)
	}
	report.KillRestart.AppendedWhileDown = len(extra)
	restarted, err := startReplica(leaderTS.URL)
	if err != nil {
		panic(err)
	}
	defer restarted.stop()
	nodes = append(nodes, restarted)
	tip := engine.Version()
	for _, n := range nodes {
		waitVersion(n.rep.Engine(), tip)
	}
	report.KillRestart.CaughtUpVersion = restarted.rep.Engine().Version()

	report.KillRestart.Identical = true
	for _, b := range bodies[:4] {
		bound := withMinVersion(b, tip)
		want, err := doWhatIf(client, leaderTS.URL, bound)
		if err != nil {
			panic(err)
		}
		for _, n := range nodes {
			got, err := doWhatIf(client, n.ts.URL, bound)
			if err != nil {
				panic(err)
			}
			if !bytes.Equal(want, got) {
				report.KillRestart.Identical = false
			}
		}
	}
	fmt.Printf("kill/restart: appended %d while down, restarted replica caught up to %d, identical=%v\n",
		report.KillRestart.AppendedWhileDown, report.KillRestart.CaughtUpVersion, report.KillRestart.Identical)

	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(clusterOut, append(raw, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", clusterOut)
}

// clusterSweepAt runs the concurrency sweep against one base URL.
func clusterSweepAt(client *http.Client, url string, bodies [][]byte, levels []int, perClient int) []serveResult {
	var out []serveResult
	for _, clients := range levels {
		total := clients * perClient
		lats := make([]time.Duration, total)
		errs := 0
		var mu sync.Mutex
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					body := bodies[(c*perClient+i)%len(bodies)]
					t0 := time.Now()
					_, err := doWhatIf(client, url, body)
					lat := time.Since(t0)
					mu.Lock()
					lats[c*perClient+i] = lat
					if err != nil {
						errs++
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		pct := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
		res := serveResult{
			Clients:       clients,
			Requests:      total,
			Errors:        errs,
			P50Us:         pct(0.50).Microseconds(),
			P95Us:         pct(0.95).Microseconds(),
			P99Us:         pct(0.99).Microseconds(),
			MaxUs:         lats[len(lats)-1].Microseconds(),
			ThroughputRps: float64(total-errs) / wall.Seconds(),
		}
		out = append(out, res)
		fmt.Printf("%-10d %12d %12d %12s %12s %12s %12.0f\n",
			clients, total, errs, ms(pct(0.50)), ms(pct(0.95)), ms(pct(0.99)), res.ThroughputRps)
	}
	return out
}

// withMinVersion stamps a read-your-writes bound onto a rendered
// /v1/whatif body.
func withMinVersion(body []byte, v int) []byte {
	var req service.WhatIfRequest
	if err := json.Unmarshal(body, &req); err != nil {
		panic(err)
	}
	req.MinVersion = v
	out, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return out
}

// wireBody renders a scenario's modifications as a /v1/whatif request
// body (statement renderings round-trip through the SQL parser, which
// the sql package's own round-trip tests pin).
func wireBody(mods []history.Modification) []byte {
	req := service.WhatIfRequest{}
	for _, m := range mods {
		switch x := m.(type) {
		case history.Replace:
			req.Modifications = append(req.Modifications,
				service.Modification{Op: "replace", Pos: x.Pos + 1, Statement: x.Stmt.String()})
		case history.InsertStmt:
			req.Modifications = append(req.Modifications,
				service.Modification{Op: "insert", Pos: x.Pos + 1, Statement: x.Stmt.String()})
		case history.DeleteStmt:
			req.Modifications = append(req.Modifications,
				service.Modification{Op: "delete", Pos: x.Pos + 1})
		}
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return raw
}

// doWhatIf posts one what-if request and returns the response body.
func doWhatIf(client *http.Client, base string, body []byte) ([]byte, error) {
	resp, err := client.Post(base+"/v1/whatif", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes(), nil
}
