package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/mahif/mahif/internal/core"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/persist"
	"github.com/mahif/mahif/internal/sql"
)

// TestInitStoreThenOpenStore initializes a store from a CSV and a
// history script, appends to it, closes it and opens it again: the
// reopened engine has the same history and gives the same answer.
func TestInitStoreThenOpenStore(t *testing.T) {
	tmp := t.TempDir()
	csvPath := filepath.Join(tmp, "orders.csv")
	histPath := filepath.Join(tmp, "history.sql")
	if err := os.WriteFile(csvPath, []byte("id,price,fee\n1,45,5\n2,55,5\n3,62,5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(histPath, []byte("UPDATE orders SET fee = 0 WHERE price >= 50;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(tmp, "data")
	engine, store, err := InitStore(dir, []string{"orders=" + csvPath}, histPath, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := engine.AppendCtx(ctx, []history.Statement{sql.MustParseStatement(`UPDATE orders SET fee = fee + 1 WHERE price < 50`)}); err != nil {
		t.Fatal(err)
	}
	mods := []history.Modification{history.Replace{Pos: 0, Stmt: sql.MustParseStatement(`UPDATE orders SET fee = 0 WHERE price >= 60`)}}
	answer := func(e *core.Engine) string {
		t.Helper()
		d, _, err := e.WhatIfCtx(ctx, mods, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		raw, err := d.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	want, version := answer(engine), engine.Version()
	if version != 2 {
		t.Fatalf("initialized and appended store at version %d, want 2", version)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, store2, err := OpenStore(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if got := reopened.Version(); got != version {
		t.Fatalf("reopened store at version %d, want %d", got, version)
	}
	if got := answer(reopened); got != want {
		t.Fatalf("reopening changed the answer:\nbefore: %s\nafter:  %s", want, got)
	}
}
