package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/service"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// testBase builds the orders relation the test histories run over.
func testBase() *storage.Database {
	db := storage.NewDatabase()
	orders := storage.NewRelation(schema.New("orders",
		schema.Col("id", types.KindInt),
		schema.Col("price", types.KindFloat),
	))
	for i := 0; i < 20; i++ {
		orders.Add(schema.Tuple{types.Int(int64(i)), types.Float(float64(10 + i))})
	}
	db.AddRelation(orders)
	return db
}

// leaderFixture is a store-backed leader serving the full v1 API over
// a real HTTP listener (the replica dials it).
type leaderFixture struct {
	engine *core.Engine
	store  *persist.Store
	ts     *httptest.Server
}

func newLeader(t *testing.T, history int) *leaderFixture {
	t.Helper()
	store, err := persist.Create(t.TempDir(), testBase(), persist.Options{
		SegmentBytes:    512,
		CheckpointEvery: 7,
		NoSync:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := core.NewDurable(store)
	for i := 0; i < history; i++ {
		appendLeader(t, engine, i)
	}
	srv := service.New(engine, service.Options{Store: store, Role: "leader"})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); store.Close() })
	return &leaderFixture{engine: engine, store: store, ts: ts}
}

func appendLeader(t *testing.T, engine *core.Engine, i int) {
	t.Helper()
	st, err := sql.ParseStatement(fmt.Sprintf(
		"UPDATE orders SET price = price + 1.0 WHERE id >= %d", i%20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.AppendCtx(context.Background(), []history.Statement{st}); err != nil {
		t.Fatalf("leader append %d: %v", i, err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicaFollowsLeader pins the whole follower lifecycle:
// bootstrap from checkpoints + bounded WAL fetch, live streaming,
// byte-identical reads, and the read-your-writes bound end to end.
func TestReplicaFollowsLeader(t *testing.T) {
	lead := newLeader(t, 12) // past CheckpointEvery: bootstrap has a checkpoint AND a WAL tail

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Bootstrap(ctx, Options{LeaderURL: lead.ts.URL, StatusEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Engine().Version(); v == 0 || v > 12 {
		t.Fatalf("bootstrap version %d, want in 1..12", v)
	}
	go rep.Run(ctx)
	waitFor(t, "catch-up", func() bool { return rep.Engine().Version() == 12 })

	// The replica serves reads through the same service handler.
	repSrv := service.New(rep.Engine(), service.Options{Role: "replica", ReadOnly: true, Replication: rep})
	repTS := httptest.NewServer(repSrv.Handler())
	defer repTS.Close()

	query := []byte(`{"modifications":[{"op":"replace","pos":1,"statement":"UPDATE orders SET price = 0 WHERE id < 5"}]}`)
	fromLeader := post(t, lead.ts.URL+"/v1/whatif", query, http.StatusOK)
	fromReplica := post(t, repTS.URL+"/v1/whatif", query, http.StatusOK)
	if !bytes.Equal(fromLeader, fromReplica) {
		t.Fatalf("replica diverges from leader:\n%s\n%s", fromLeader, fromReplica)
	}

	// Appends are rejected locally: the history only advances through
	// the stream.
	post(t, repTS.URL+"/v1/history", []byte(`{"statements":["UPDATE orders SET price = 1 WHERE id = 1"]}`), http.StatusForbidden)

	// Read-your-writes across nodes: append on the leader, read on the
	// replica bounded by the version the append returned. The read may
	// arrive before the record does — the bound makes it wait.
	appendLeader(t, lead.engine, 13)
	bounded := []byte(`{"min_version":13,"modifications":[{"op":"replace","pos":1,"statement":"UPDATE orders SET price = 0 WHERE id < 5"}]}`)
	post(t, repTS.URL+"/v1/whatif", bounded, http.StatusOK)
	// A 200 means the wait held the read until version 13 was applied
	// (an unreachable bound 504s, below) — confirm the replica is there.
	if v := rep.Engine().Version(); v < 13 {
		t.Fatalf("replica at version %d after bounded read, want >= 13", v)
	}

	// An unreachable bound times out with 504 — never a stale 200.
	post(t, repTS.URL+"/v1/whatif",
		[]byte(`{"min_version":100,"timeout_ms":50,"modifications":[{"op":"replace","pos":1,"statement":"UPDATE orders SET price = 0 WHERE id < 5"}]}`),
		http.StatusGatewayTimeout)

	st := rep.ReplicationStatus()
	if !st.Connected || st.AppliedVersion != 13 || st.Lag != 0 || st.RecordsApplied == 0 {
		t.Fatalf("replication status = %+v", st)
	}
}

// TestReplicaReconnects kills the live stream and checks the follower
// re-establishes it and keeps applying.
func TestReplicaReconnects(t *testing.T) {
	lead := newLeader(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rep, err := Bootstrap(ctx, Options{LeaderURL: lead.ts.URL, ReconnectMin: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	go rep.Run(ctx)
	waitFor(t, "initial catch-up", func() bool { return rep.Engine().Version() == 3 })

	lead.ts.CloseClientConnections()
	appendLeader(t, lead.engine, 4)
	waitFor(t, "catch-up after reconnect", func() bool { return rep.Engine().Version() == 4 })
	if st := rep.ReplicationStatus(); st.Reconnects == 0 {
		t.Fatalf("replication status after kill = %+v, want reconnects > 0", st)
	}
}

func post(t *testing.T, url string, body []byte, wantCode int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: %d %s, want %d", url, resp.StatusCode, buf.String(), wantCode)
	}
	return buf.Bytes()
}

func get(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: %d %s, want %d", url, resp.StatusCode, buf.String(), wantCode)
	}
	return buf.Bytes()
}

// TestRouter pins routing: appends land on the leader, version-bounded
// reads go to a replica already at the version, and a dead backend is
// routed around without surfacing errors.
func TestRouter(t *testing.T) {
	lead := newLeader(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var replicaURLs []string
	var replicaServers []*httptest.Server
	var reps []*Replica
	for i := 0; i < 2; i++ {
		rep, err := Bootstrap(ctx, Options{LeaderURL: lead.ts.URL, ReconnectMin: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		go rep.Run(ctx)
		srv := service.New(rep.Engine(), service.Options{Role: "replica", ReadOnly: true, Replication: rep})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		replicaURLs = append(replicaURLs, ts.URL)
		replicaServers = append(replicaServers, ts)
		reps = append(reps, rep)
	}
	for _, rep := range reps {
		rep := rep
		waitFor(t, "replica catch-up", func() bool { return rep.Engine().Version() == 5 })
	}

	router, err := NewRouter(RouterOptions{
		LeaderURL:   lead.ts.URL,
		Backends:    replicaURLs,
		HealthEvery: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	go router.Run(ctx)
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()

	waitFor(t, "backends healthy", func() bool {
		var st RouterStatus
		if err := json.Unmarshal(get(t, routerTS.URL+"/v1/status", http.StatusOK), &st); err != nil {
			return false
		}
		healthy := 0
		for _, b := range st.Backends {
			if b.Healthy {
				healthy++
			}
		}
		return healthy == 3
	})

	// An append through the router lands on the leader.
	var app struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(post(t, routerTS.URL+"/v1/history",
		[]byte(`{"statements":["UPDATE orders SET price = price + 1.0 WHERE id >= 3"]}`), http.StatusOK), &app); err != nil {
		t.Fatal(err)
	}
	if app.Version != 6 || lead.engine.Version() != 6 {
		t.Fatalf("append via router: version %d, leader at %d, want 6", app.Version, lead.engine.Version())
	}

	// Read-your-writes through the router: bound by the append's
	// version, every read answers at or past it. Until a health poll has
	// seen a replica at that version the leader answers them all (the
	// fallback), so wait for one: twenty reads can finish inside one
	// poll interval.
	waitFor(t, "a replica seen at the append's version", func() bool {
		var st RouterStatus
		if err := json.Unmarshal(get(t, routerTS.URL+"/v1/status", http.StatusOK), &st); err != nil {
			return false
		}
		for _, b := range st.Backends {
			if !b.Leader && b.Healthy && b.Version >= 6 {
				return true
			}
		}
		return false
	})
	bounded := []byte(`{"min_version":6,"modifications":[{"op":"replace","pos":1,"statement":"UPDATE orders SET price = 0 WHERE id < 5"}]}`)
	sawReplica := false
	for i := 0; i < 20; i++ {
		resp, err := http.Post(routerTS.URL+"/v1/whatif", "application/json", bytes.NewReader(bounded))
		if err != nil {
			t.Fatal(err)
		}
		backend := resp.Header.Get("X-Mahif-Backend")
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed read %d: %d %s (via %s)", i, resp.StatusCode, buf.String(), backend)
		}
		if backend != lead.ts.URL {
			sawReplica = true
		}
	}
	if !sawReplica {
		t.Fatal("no routed read landed on a replica")
	}

	// GET /v1/history through the router reads the leader's log.
	var hist struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(get(t, routerTS.URL+"/v1/history?since=0&limit=2", http.StatusOK), &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Version != 6 {
		t.Fatalf("history via router: version %d, want 6", hist.Version)
	}

	// The router's metrics expose per-backend health.
	if m := string(get(t, routerTS.URL+"/metrics", http.StatusOK)); !strings.Contains(m, "mahif_router_backend_healthy") {
		t.Fatalf("router metrics missing health gauge:\n%s", m)
	}

	// Kill one replica: the router retries the next candidate, so no
	// read ever surfaces the failure. (The process-level kill -9 path
	// is the CI cluster smoke's job.)
	replicaServers[0].CloseClientConnections()
	replicaServers[0].Close()
	for i := 0; i < 10; i++ {
		post(t, routerTS.URL+"/v1/whatif", bounded, http.StatusOK)
	}
}
