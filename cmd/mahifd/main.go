// Command mahifd serves historical what-if queries over HTTP: it loads
// CSV snapshots and a SQL history like cmd/mahif — or recovers a
// durable data directory — then answers queries through one
// long-lived engine session, so consecutive requests over the same
// history reuse time-travel snapshots, solver memos, and compiled
// reenactment programs. With -data the history is durable: appends
// through POST /v1/history commit to a segmented write-ahead log
// before they are acknowledged, periodic checkpoints bound recovery
// time, and a restarted (even killed) server recovers the exact
// committed history and serves identical answers.
//
// -role picks the process's place in a replicated topology:
//
//   - single (default): one process, reads and writes.
//   - leader: a durable single that also ships its WAL to followers
//     over GET /v1/wal and its checkpoint images over GET /v1/checkpoint.
//   - replica: bootstraps from -leader's checkpoints, applies its live
//     WAL stream, and serves reads only; POST /v1/history gets a 403.
//     Reads may carry min_version for read-your-writes.
//   - router: no engine at all — health-checks -leader and -backends,
//     spreads reads over the replicas already at the requested
//     min_version, and forwards appends to the leader.
//
// Usage:
//
//	# in-memory (rebuilt from files on every start)
//	mahifd -addr :8080 -csv orders=orders.csv -history history.sql
//
//	# durable: first start ingests, later starts recover
//	mahifd -addr :8080 -data /var/lib/mahif -csv orders=orders.csv -history history.sql
//	mahifd -addr :8080 -data /var/lib/mahif
//
//	# replicated: leader, two replicas, one router
//	mahifd -addr :8080 -role leader -data /var/lib/mahif
//	mahifd -addr :8081 -role replica -leader http://localhost:8080
//	mahifd -addr :8082 -role replica -leader http://localhost:8080
//	mahifd -addr :8090 -role router -leader http://localhost:8080 \
//	       -backends http://localhost:8081,http://localhost:8082
//
// API (v1; see internal/service for the wire types):
//
//	POST /v1/whatif   {"modifications": [{"op": "replace", "pos": 1,
//	                   "statement": "UPDATE orders SET fee = 0 WHERE price >= 60"}],
//	                   "variant": "R+PS+DS", "stats": true, "timeout_ms": 500,
//	                   "min_version": 42}
//	POST /v1/batch    {"scenarios": [{"label": "fee60", "modifications": [...]}],
//	                   "workers": 4, "stats": true}
//	POST /v1/template {"modifications": [{"op": "replace", "pos": 1,
//	                   "statement": "UPDATE orders SET fee = 0 WHERE price >= $cut"}]}
//	                  → compiles the $-parameterized scenario once, returns its id
//	POST /v1/template/{id}/eval  {"binding": {"cut": 60}} — or a sweep:
//	                  {"bindings": [{"cut": 55}, {"cut": 60}], "workers": 4}
//	GET  /v1/history  the transactional history (paged: ?since=N&limit=M)
//	POST /v1/history  {"statements": ["UPDATE orders SET fee = 1 WHERE id = 7"]}
//	GET  /v1/status   role, version, replication position
//	GET  /v1/wal      committed WAL record stream (store-backed only)
//	GET  /v1/checkpoint  checkpoint image (store-backed only)
//	GET  /metrics     Prometheus text exposition (sessions, WAL, replication)
//	GET  /healthz     liveness
//
// Every request is evaluated under a deadline (the smaller of -timeout
// and the request's timeout_ms); a request that exceeds it gets a 504
// and, thanks to the engine's context plumbing, stops consuming CPU
// within milliseconds. SIGINT/SIGTERM drain in-flight requests before
// exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/replica"
	"github.com/mahif/mahif/internal/service"
)

type csvFlags []string

func (d *csvFlags) String() string { return strings.Join(*d, ",") }

func (d *csvFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

type config struct {
	csvs            csvFlags
	dataDir         string
	historyPath     string
	addr            string
	timeout         time.Duration
	drain           time.Duration
	checkpointEvery int
	role            string
	leaderURL       string
	backends        string
}

func main() {
	var cfg config
	flag.Var(&cfg.csvs, "csv", "relation=file.csv (repeatable; base state for first ingest or in-memory serving)")
	flag.StringVar(&cfg.dataDir, "data", "", "durable data directory (WAL + checkpoints); empty serves in-memory")
	flag.StringVar(&cfg.historyPath, "history", "", "SQL script with the transactional history (first ingest / in-memory)")
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request evaluation budget")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "shutdown grace period for in-flight requests")
	flag.IntVar(&cfg.checkpointEvery, "checkpoint-every", 1000, "auto checkpoint every N appended statements (0 = manual)")
	flag.StringVar(&cfg.role, "role", "single", "topology role: single, leader, replica, or router")
	flag.StringVar(&cfg.leaderURL, "leader", "", "leader base URL (roles replica and router)")
	flag.StringVar(&cfg.backends, "backends", "", "comma-separated replica base URLs (role router)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mahifd:", err)
		os.Exit(1)
	}
}

// loadEngine resolves the three start modes: recover a durable store,
// initialize one from CSVs, or serve in-memory.
func loadEngine(cfg config) (*core.Engine, *persist.Store, error) {
	if cfg.dataDir == "" {
		if len(cfg.csvs) == 0 || cfg.historyPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		engine, err := service.LoadEngine(cfg.csvs, cfg.historyPath)
		return engine, nil, err
	}
	opts := persist.Options{CheckpointEvery: cfg.checkpointEvery, Logf: log.Printf}
	if persist.Detect(cfg.dataDir) {
		if len(cfg.csvs) > 0 || cfg.historyPath != "" {
			return nil, nil, fmt.Errorf("-data %s already holds a store; drop -csv/-history (append via POST /v1/history or `mahif ingest`)", cfg.dataDir)
		}
		engine, store, err := service.OpenStore(cfg.dataDir, opts)
		if err != nil {
			return nil, nil, err
		}
		ri := store.RecoveryInfo()
		log.Printf("mahifd: recovered %d statements from %s in %v (checkpoint@%d, replayed %d, truncated %d records)",
			ri.Statements, cfg.dataDir, ri.Duration, ri.CheckpointVersion, ri.ReplayedStatements, ri.TruncatedRecords)
		return engine, store, nil
	}
	if len(cfg.csvs) == 0 {
		return nil, nil, fmt.Errorf("-data %s holds no store yet; pass -csv relation=file.csv (and optionally -history) to ingest", cfg.dataDir)
	}
	engine, store, err := service.InitStore(cfg.dataDir, cfg.csvs, cfg.historyPath, opts)
	if err != nil {
		return nil, nil, err
	}
	log.Printf("mahifd: initialized durable store in %s (%d statements ingested)", cfg.dataDir, store.Version())
	return engine, store, nil
}

// roleServer is one role's wiring: the handler that serves, the
// callback Shutdown fires (ends open WAL streams so drain can finish),
// the cleanup that runs after drain, and a log line describing it.
type roleServer struct {
	handler    http.Handler
	onShutdown func()
	cleanup    func()
	desc       string
}

// buildHandler wires the role: which handler serves, whether a store
// backs it, and what runs in the background (stream follower, health
// poller).
func buildHandler(ctx context.Context, cfg config) (roleServer, error) {
	noop := func() {}
	rs := roleServer{onShutdown: noop, cleanup: noop}
	switch cfg.role {
	case "single", "leader":
		engine, store, err := loadEngine(cfg)
		if err != nil {
			return rs, err
		}
		if cfg.role == "leader" && store == nil {
			return rs, fmt.Errorf("-role leader needs -data: followers stream the WAL")
		}
		srv := service.New(engine, service.Options{
			Timeout: cfg.timeout, Store: store, Role: cfg.role,
		})
		rs.handler = srv.Handler()
		rs.onShutdown = srv.StopStreams
		mode := "in-memory"
		if store != nil {
			mode = "durable:" + store.Dir()
			rs.cleanup = func() { store.Close() }
		}
		rs.desc = fmt.Sprintf("%s, %s, %d-statement history", cfg.role, mode, engine.Version())
		return rs, nil

	case "replica":
		if cfg.leaderURL == "" {
			return rs, fmt.Errorf("-role replica needs -leader")
		}
		rep, err := bootstrapWithRetry(ctx, replica.Options{LeaderURL: cfg.leaderURL, Logf: log.Printf})
		if err != nil {
			return rs, err
		}
		go rep.Run(ctx)
		srv := service.New(rep.Engine(), service.Options{
			Timeout: cfg.timeout, Role: "replica", ReadOnly: true, Replication: rep,
		})
		rs.handler = srv.Handler()
		rs.desc = fmt.Sprintf("replica of %s, bootstrapped at version %d", cfg.leaderURL, rep.Engine().Version())
		return rs, nil

	case "router":
		if cfg.leaderURL == "" {
			return rs, fmt.Errorf("-role router needs -leader")
		}
		var backends []string
		for _, b := range strings.Split(cfg.backends, ",") {
			if b = strings.TrimSpace(b); b != "" {
				backends = append(backends, b)
			}
		}
		router, err := replica.NewRouter(replica.RouterOptions{
			LeaderURL: cfg.leaderURL, Backends: backends, Logf: log.Printf,
		})
		if err != nil {
			return rs, err
		}
		go router.Run(ctx)
		rs.handler = router.Handler()
		rs.desc = fmt.Sprintf("router over leader %s + %d replicas", cfg.leaderURL, len(backends))
		return rs, nil
	}
	return rs, fmt.Errorf("unknown -role %q (want single, leader, replica, or router)", cfg.role)
}

// bootstrapWithRetry tolerates a leader that is still starting (the
// normal cluster bring-up order is racy on purpose).
func bootstrapWithRetry(ctx context.Context, opts replica.Options) (*replica.Replica, error) {
	var lastErr error
	for attempt := 0; attempt < 30; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		rep, err := replica.Bootstrap(ctx, opts)
		if err == nil {
			return rep, nil
		}
		lastErr = err
		log.Printf("mahifd: bootstrap attempt %d: %v", attempt+1, err)
	}
	return nil, fmt.Errorf("bootstrapping from %s: %w", opts.LeaderURL, lastErr)
}

func run(cfg config) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rs, err := buildHandler(ctx, cfg)
	if err != nil {
		return err
	}
	defer rs.cleanup()

	httpSrv := &http.Server{
		Addr:    cfg.addr,
		Handler: rs.handler,
		// Read/write limits shield the evaluation budget from slow
		// clients; WriteTimeout leaves headroom over the evaluation
		// deadline so a just-in-time result still gets written. The WAL
		// stream handler lifts its own write deadline — followers hold
		// their stream open indefinitely.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      cfg.timeout + 10*time.Second,
	}
	httpSrv.RegisterOnShutdown(rs.onShutdown)

	errCh := make(chan error, 1)
	go func() {
		log.Printf("mahifd: serving on %s (%s, timeout=%v)",
			cfg.addr, rs.desc, cfg.timeout)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("mahifd: shutting down, draining for up to %v", cfg.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
