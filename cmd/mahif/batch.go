package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/mahif/mahif"
	"github.com/mahif/mahif/internal/service"
)

// runBatchCmd is the `mahif batch` subcommand: evaluate a family of
// what-if scenarios from a JSON file concurrently over one history.
func runBatchCmd(args []string) {
	fs := flag.NewFlagSet("mahif batch", flag.ExitOnError)
	var data dataFlags
	fs.Var(&data, "data", "relation=file.csv (repeatable)")
	historyPath := fs.String("history", "", "SQL script with the transactional history")
	scenariosPath := fs.String("scenarios", "", "JSON file with the scenario batch")
	variant := fs.String("variant", "R+PS+DS", "algorithm variant: R, R+PS, R+DS, R+PS+DS")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	showStats := fs.Bool("stats", false, "print per-scenario and batch statistics")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `Usage: mahif batch -data rel=file.csv -history h.sql -scenarios s.json [-variant R+PS+DS] [-workers N] [-stats]

The scenarios file is a JSON array:

  [
    {"label": "fee60", "modifications": [
        {"op": "replace", "pos": 1, "statement": "UPDATE orders SET fee = 0 WHERE price >= 60"},
        {"op": "insert",  "pos": 2, "statement": "UPDATE orders SET fee = 1 WHERE country = 'US'"},
        {"op": "delete",  "pos": 3}
    ]}
  ]

Positions are 1-based, matching the single-query modification script.`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if len(data) == 0 || *historyPath == "" || *scenariosPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := runBatch(data, *historyPath, *scenariosPath, *variant, *workers, *showStats); err != nil {
		fmt.Fprintln(os.Stderr, "mahif batch:", err)
		os.Exit(1)
	}
}

func runBatch(data []string, historyPath, scenariosPath, variant string, workers int, showStats bool) error {
	engine, err := service.LoadEngine(data, historyPath)
	if err != nil {
		return err
	}
	scenarios, err := loadScenarios(scenariosPath)
	if err != nil {
		return err
	}
	results, bstats, err := engine.WhatIfBatch(scenarios, mahif.BatchOptions{
		Options: mahif.OptionsFor(mahif.Variant(variant)),
		Workers: workers,
	})
	if err != nil {
		return err
	}
	for _, r := range results {
		label := r.Label
		if label == "" {
			label = fmt.Sprintf("scenario %d", r.Scenario+1)
		}
		fmt.Printf("== %s ==\n", label)
		if r.Err != nil {
			fmt.Printf("error: %v\n", r.Err)
			continue
		}
		fmt.Print(r.Delta)
		if showStats {
			fmt.Printf("total=%v time-travel=%v ps=%v ds=%v execute=%v delta=%v reenacted=%d/%d\n",
				r.Stats.Total, r.Stats.TimeTravel, r.Stats.ProgramSlicing, r.Stats.DataSlicing,
				r.Stats.Execute, r.Stats.Delta, r.Stats.KeptStatements, r.Stats.TotalStatements)
		}
	}
	if showStats {
		fmt.Printf("batch: scenarios=%d failed=%d workers=%d total=%v snapshots(hit/miss)=%d/%d memo(hit/miss)=%d/%d programs(reused/compiled)=%d/%d\n",
			bstats.Scenarios, bstats.Failed, bstats.Workers, bstats.Total,
			bstats.SnapshotHits, bstats.SnapshotMisses, bstats.MemoHits, bstats.MemoMisses,
			bstats.QueryHits, bstats.QueryMisses)
	}
	if bstats.Failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", bstats.Failed, bstats.Scenarios)
	}
	return nil
}

// loadScenarios reads the -scenarios file: a JSON array in the same
// wire format the mahifd batch endpoint accepts (internal/service).
func loadScenarios(path string) ([]mahif.Scenario, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var parsed []service.Scenario
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out, err := service.DecodeScenarios(parsed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}
