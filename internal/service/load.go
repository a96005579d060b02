package service

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"strconv"
	"strings"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/sql"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// LoadEngine builds an engine from CSV snapshots and a SQL history
// script — the file-based bootstrap shared by cmd/mahifd. Each data
// spec is "relation=file.csv" (header row required; each column's type
// is the first of int, float, bool and string that every non-empty
// cell of the column parses as; floats must be finite).
// The history is applied statement by statement, so the engine's redo
// log matches the script.
func LoadEngine(dataSpecs []string, historyPath string) (*core.Engine, error) {
	db, err := LoadBase(dataSpecs)
	if err != nil {
		return nil, err
	}
	hist, err := LoadHistory(historyPath)
	if err != nil {
		return nil, err
	}
	vdb := storage.NewVersioned(db)
	for _, st := range hist {
		if err := vdb.Apply(st); err != nil {
			return nil, fmt.Errorf("executing history: %w", err)
		}
	}
	return core.New(vdb), nil
}

// LoadBase builds the pre-history database state from CSV specs
// ("relation=file.csv", header row required).
func LoadBase(dataSpecs []string) (*storage.Database, error) {
	db := storage.NewDatabase()
	for _, spec := range dataSpecs {
		name, file, ok := strings.Cut(spec, "=")
		if !ok {
			return nil, fmt.Errorf("bad CSV spec %q (want relation=file.csv)", spec)
		}
		rel, err := LoadCSV(name, file)
		if err != nil {
			return nil, err
		}
		db.AddRelation(rel)
	}
	return db, nil
}

// LoadHistory parses a SQL history script.
func LoadHistory(path string) ([]history.Statement, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	hist, err := sql.ParseStatements(string(raw))
	if err != nil {
		return nil, err
	}
	return []history.Statement(hist), nil
}

// InitStore creates a durable store in dir: the CSV snapshots become
// the base state (checkpoint 0) and the optional history script is
// committed through the WAL, so the directory alone reproduces the
// engine on every later start. A failed ingest rolls the store files
// back out of dir — a partial first ingest would otherwise block
// re-initialization while silently serving a truncated history.
func InitStore(dir string, csvSpecs []string, historyPath string, opts persist.Options) (*core.Engine, *persist.Store, error) {
	if len(csvSpecs) == 0 {
		return nil, nil, fmt.Errorf("initializing %s: at least one relation=file.csv is required", dir)
	}
	base, err := LoadBase(csvSpecs)
	if err != nil {
		return nil, nil, err
	}
	// Parse the whole script before creating anything on disk.
	var hist []history.Statement
	if historyPath != "" {
		if hist, err = LoadHistory(historyPath); err != nil {
			return nil, nil, err
		}
	}
	store, err := persist.Create(dir, base, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(hist) > 0 {
		if _, err := store.Append(context.Background(), hist); err != nil {
			store.Close()
			if rerr := persist.RemoveStore(dir); rerr != nil {
				return nil, nil, fmt.Errorf("ingesting history: %v (and rolling back %s failed: %w)", err, dir, rerr)
			}
			return nil, nil, fmt.Errorf("ingesting history: %w", err)
		}
	}
	return core.NewDurable(store), store, nil
}

// OpenStore recovers the durable store in dir and wraps it in an
// engine whose appends commit WAL-first.
func OpenStore(dir string, opts persist.Options) (*core.Engine, *persist.Store, error) {
	store, err := persist.Open(dir, opts)
	if err != nil {
		return nil, nil, err
	}
	return core.NewDurable(store), store, nil
}

// LoadCSV reads one relation from a CSV file with a header row.
func LoadCSV(relName, file string) (*storage.Relation, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	if len(rows) < 1 {
		return nil, fmt.Errorf("%s: empty CSV", file)
	}
	header := rows[0]
	cols := make([]schema.Column, len(header))
	for ci, h := range header {
		kind := types.KindString
		if len(rows) > 1 {
			kind = inferKind(rows[1:], ci)
		}
		cols[ci] = schema.Col(h, kind)
	}
	rel := storage.NewRelation(schema.New(relName, cols...))
	for _, row := range rows[1:] {
		if len(row) != len(header) {
			return nil, fmt.Errorf("%s: row with %d fields, header has %d", file, len(row), len(header))
		}
		t := make(schema.Tuple, len(row))
		for ci, cell := range row {
			t[ci] = parseCell(cell, cols[ci].Type)
		}
		rel.Add(t)
	}
	return rel, nil
}

func inferKind(rows [][]string, ci int) types.Kind {
	kind := types.KindInt
	for _, row := range rows {
		cell := row[ci]
		if cell == "" {
			continue
		}
		switch kind {
		case types.KindInt:
			if _, err := strconv.ParseInt(cell, 10, 64); err == nil {
				continue
			}
			kind = types.KindFloat
			fallthrough
		case types.KindFloat:
			if _, ok := types.ParseFloat(cell); ok {
				continue
			}
			kind = types.KindBool
			fallthrough
		case types.KindBool:
			if cell == "true" || cell == "false" {
				continue
			}
			return types.KindString
		}
	}
	return kind
}

func parseCell(cell string, kind types.Kind) types.Value {
	if cell == "" {
		return types.Null()
	}
	switch kind {
	case types.KindInt:
		if v, err := strconv.ParseInt(cell, 10, 64); err == nil {
			return types.Int(v)
		}
	case types.KindFloat:
		if v, ok := types.ParseFloat(cell); ok {
			return types.Float(v)
		}
	case types.KindBool:
		if cell == "true" {
			return types.Bool(true)
		}
		if cell == "false" {
			return types.Bool(false)
		}
	}
	return types.String(cell)
}
