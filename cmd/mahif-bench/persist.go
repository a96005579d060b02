package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/workload"
)

// persistOut is the output path of the persist experiment (flag
// -persistout).
var persistOut = "BENCH_persist.json"

// appendResult is one cell of the append-throughput sweep.
type appendResult struct {
	BatchSize   int     `json:"batch_size"`
	Sync        bool    `json:"sync"`
	Statements  int     `json:"statements"`
	Seconds     float64 `json:"seconds"`
	StmtsPerSec float64 `json:"stmts_per_sec"`
	WALBytes    int64   `json:"wal_bytes"`
	MBPerSec    float64 `json:"mb_per_sec"`
	// Concurrency is the number of goroutines appending at once (group
	// commit cells; omitted for the serial sweep). GroupCommits counts
	// fsyncs led, SyncsCoalesced the appends that rode another caller's
	// fsync instead of paying their own.
	Concurrency    int   `json:"concurrency,omitempty"`
	GroupCommits   int64 `json:"group_commits,omitempty"`
	SyncsCoalesced int64 `json:"syncs_coalesced,omitempty"`
}

// checkpointResult measures one snapshot checkpoint.
type checkpointResult struct {
	Version     int     `json:"version"`
	TotalTuples int     `json:"total_tuples"`
	Bytes       int64   `json:"bytes"`
	Seconds     float64 `json:"seconds"`
}

// recoveryResult measures one cold open.
type recoveryResult struct {
	Statements        int     `json:"statements"`
	CheckpointEvery   int     `json:"checkpoint_every"`
	RecoverySeconds   float64 `json:"recovery_seconds"`
	CheckpointVersion int     `json:"checkpoint_version"`
	Replayed          int     `json:"replayed_statements"`
}

// persistReport is the BENCH_persist.json document: the durability
// layer's perf baseline (append throughput, checkpoint cost, cold
// recovery time vs history length).
type persistReport struct {
	Description string             `json:"description"`
	Rows        int                `json:"rows_flag"`
	Seed        int64              `json:"seed"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Append      []appendResult     `json:"append"`
	Checkpoint  []checkpointResult `json:"checkpoint"`
	Recovery    []recoveryResult   `json:"recovery"`
}

// persistStatements generates a realistic n-statement history over the
// Taxi dataset (updates, inserts, deletes) plus its base database.
func (h *harness) persistStatements(n int) ([]history.Statement, *storage.Database) {
	ds := workload.Taxi(h.rows, h.seed)
	w := h.gen(ds, workload.Config{
		Updates: n, Mods: 1, DependentPct: 30, AffectedPct: 10,
		InsertPct: 10, DeletePct: 5,
	})
	return []history.Statement(w.History), ds.Database()
}

// persistExp measures the durable history store and writes
// BENCH_persist.json.
func (h *harness) persistExp() {
	report := &persistReport{
		Description: "internal/persist: WAL append throughput (batch × fsync), checkpoint cost, cold recovery vs history length and checkpoint cadence",
		Rows:        h.rows,
		Seed:        h.seed,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	tmp, err := os.MkdirTemp("", "mahif-bench-persist-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()

	// Append throughput: WAL write + fsync + in-memory apply, which is
	// what a live POST /v1/history pays.
	appendN := 2000
	if h.quick {
		appendN = 200
	}
	stmts, base := h.persistStatements(appendN)
	type appendCfg struct {
		sync  bool
		batch int
	}
	var cfgs []appendCfg
	for _, sync := range []bool{true, false} {
		for _, batch := range []int{1, 16, 128} {
			cfgs = append(cfgs, appendCfg{sync: sync, batch: batch})
		}
	}
	header("Persist: append throughput — Taxi",
		"batch", "sync", "stmts", "sec", "stmts/s", "MB/s")
	for _, cfg := range cfgs {
		dir := filepath.Join(tmp, fmt.Sprintf("append-%d-%v", cfg.batch, cfg.sync))
		store, err := persist.Create(dir, base, persist.Options{NoSync: !cfg.sync})
		if err != nil {
			panic(err)
		}
		start := time.Now()
		for i := 0; i < len(stmts); i += cfg.batch {
			end := min(i+cfg.batch, len(stmts))
			if _, err := store.Append(ctx, stmts[i:end]); err != nil {
				panic(err)
			}
		}
		sec := time.Since(start).Seconds()
		st := store.Stats()
		store.Close()
		res := appendResult{
			BatchSize:   cfg.batch,
			Sync:        cfg.sync,
			Statements:  len(stmts),
			Seconds:     sec,
			StmtsPerSec: float64(len(stmts)) / sec,
			WALBytes:    st.WALBytesWritten,
			MBPerSec:    float64(st.WALBytesWritten) / sec / (1 << 20),
		}
		report.Append = append(report.Append, res)
		fmt.Printf("%-10d %12v %12d %12.2f %12.0f %12.2f\n",
			cfg.batch, cfg.sync, res.Statements, res.Seconds, res.StmtsPerSec, res.MBPerSec)
	}

	// Group commit: concurrent single-statement appenders share one
	// fsync. The fsync-per-statement cell above is the disk-bound floor;
	// these cells show concurrency recovering throughput without giving
	// up per-append durability, with the coalescing counters proving the
	// mechanism (appends ≫ fsyncs led).
	header("Persist: group commit (sync, batch=1) — Taxi",
		"workers", "stmts", "sec", "stmts/s", "led", "coalesced")
	for _, workers := range []int{1, 4, 16} {
		dir := filepath.Join(tmp, fmt.Sprintf("group-%d", workers))
		store, err := persist.Create(dir, base, persist.Options{})
		if err != nil {
			panic(err)
		}
		var wg sync.WaitGroup
		start := time.Now()
		for wkr := 0; wkr < workers; wkr++ {
			wg.Add(1)
			go func(wkr int) {
				defer wg.Done()
				for i := wkr; i < len(stmts); i += workers {
					if _, err := store.Append(ctx, stmts[i:i+1]); err != nil {
						panic(err)
					}
				}
			}(wkr)
		}
		wg.Wait()
		sec := time.Since(start).Seconds()
		st := store.Stats()
		store.Close()
		res := appendResult{
			BatchSize:      1,
			Sync:           true,
			Statements:     len(stmts),
			Seconds:        sec,
			StmtsPerSec:    float64(len(stmts)) / sec,
			WALBytes:       st.WALBytesWritten,
			MBPerSec:       float64(st.WALBytesWritten) / sec / (1 << 20),
			Concurrency:    workers,
			GroupCommits:   st.GroupCommits,
			SyncsCoalesced: st.SyncsCoalesced,
		}
		report.Append = append(report.Append, res)
		fmt.Printf("%-10d %12d %12.2f %12.0f %12d %12d\n",
			workers, res.Statements, res.Seconds, res.StmtsPerSec, res.GroupCommits, res.SyncsCoalesced)
	}

	// Checkpoint cost as the materialized state grows.
	header("Persist: checkpoint cost", "version", "tuples", "bytes", "sec")
	{
		dir := filepath.Join(tmp, "checkpoint")
		store, err := persist.Create(dir, base, persist.Options{NoSync: true})
		if err != nil {
			panic(err)
		}
		marks := []int{len(stmts) / 4, len(stmts) / 2, len(stmts)}
		next := 0
		for i, st := range stmts {
			if _, err := store.Append(ctx, []history.Statement{st}); err != nil {
				panic(err)
			}
			if next < len(marks) && i+1 == marks[next] {
				info, err := store.Checkpoint()
				if err != nil {
					panic(err)
				}
				_, db := store.Database().TipSnapshot()
				res := checkpointResult{
					Version:     info.Version,
					TotalTuples: db.TotalTuples(),
					Bytes:       info.Bytes,
					Seconds:     info.Duration.Seconds(),
				}
				report.Checkpoint = append(report.Checkpoint, res)
				fmt.Printf("%-10d %12d %12d %12.3f\n", res.Version, res.TotalTuples, res.Bytes, res.Seconds)
				next++
			}
		}
		store.Close()
	}

	// Cold recovery: open time vs history length, with and without
	// checkpoints (0 = replay everything from the base).
	header("Persist: cold recovery", "stmts", "ckpt-every", "sec", "replayed")
	recoverNs := []int{500, 2000, 8000}
	every := []int{0, 1000}
	if h.quick {
		recoverNs = []int{200}
		every = []int{0, 100}
	}
	for _, n := range recoverNs {
		stmts, base := h.persistStatements(n)
		for _, every := range every {
			dir := filepath.Join(tmp, fmt.Sprintf("recover-%d-%d", n, every))
			store, err := persist.Create(dir, base, persist.Options{NoSync: true, CheckpointEvery: every})
			if err != nil {
				panic(err)
			}
			for i := 0; i < len(stmts); i += 256 {
				if _, err := store.Append(ctx, stmts[i:min(i+256, len(stmts))]); err != nil {
					panic(err)
				}
			}
			store.Close()

			start := time.Now()
			re, err := persist.Open(dir, persist.Options{})
			if err != nil {
				panic(err)
			}
			sec := time.Since(start).Seconds()
			ri := re.RecoveryInfo()
			re.Close()
			res := recoveryResult{
				Statements:        n,
				CheckpointEvery:   every,
				RecoverySeconds:   sec,
				CheckpointVersion: ri.CheckpointVersion,
				Replayed:          ri.ReplayedStatements,
			}
			report.Recovery = append(report.Recovery, res)
			fmt.Printf("%-10d %12d %12.3f %12d\n", n, every, sec, res.Replayed)
		}
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile(persistOut, append(out, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s\n", persistOut)
}
