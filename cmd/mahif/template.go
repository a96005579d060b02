package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"github.com/mahif/mahif"
	"github.com/mahif/mahif/internal/service"
)

// runTemplateCmd is the `mahif template` subcommand: compile a
// parameterized what-if scenario once and answer a file of bindings.
func runTemplateCmd(args []string) {
	fs := flag.NewFlagSet("mahif template", flag.ExitOnError)
	var data dataFlags
	fs.Var(&data, "data", "relation=file.csv (repeatable)")
	historyPath := fs.String("history", "", "SQL script with the transactional history")
	whatifPath := fs.String("whatif", "", "modification script with $name parameter slots")
	bindingsPath := fs.String("bindings", "", "JSON array of parameter bindings")
	variant := fs.String("variant", "R+PS+DS", "algorithm variant: R, R+PS, R+DS, R+PS+DS")
	workers := fs.Int("workers", 0, "eval worker pool size (0 = GOMAXPROCS)")
	showStats := fs.Bool("stats", false, "print compile and eval statistics")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `Usage: mahif template -data rel=file.csv -history h.sql -whatif changes.txt -bindings b.json [-variant R+PS+DS] [-workers N] [-stats]

The modification script is the single-query format with $name slots in
the statements:

  replace 1: UPDATE orders SET fee = 0 WHERE price >= $cut

The bindings file is a JSON array of objects, one delta per entry:

  [ {"cut": 55}, {"cut": 60}, {"cut": 65.5} ]

The scenario is compiled once (alignment, time travel, program slicing
with the slots symbolic); each binding then costs only the retained
modified-side evaluation.`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if len(data) == 0 || *historyPath == "" || *whatifPath == "" || *bindingsPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := runTemplate(data, *historyPath, *whatifPath, *bindingsPath, *variant, *workers, *showStats); err != nil {
		fmt.Fprintln(os.Stderr, "mahif template:", err)
		os.Exit(1)
	}
}

func runTemplate(data []string, historyPath, whatifPath, bindingsPath, variant string, workers int, showStats bool) error {
	engine, err := service.LoadEngine(data, historyPath)
	if err != nil {
		return err
	}
	mods, err := loadModifications(whatifPath)
	if err != nil {
		return err
	}
	bindings, err := loadBindings(bindingsPath)
	if err != nil {
		return err
	}
	tpl, err := engine.CompileTemplate(mods, mahif.OptionsFor(mahif.Variant(variant)))
	if err != nil {
		return err
	}
	if showStats {
		st := tpl.Stats()
		fmt.Printf("template: params=%v compile=%v reenacted=%d/%d (binding-independent=%d dependent=%d)\n",
			tpl.Params(), st.CompileTime, st.KeptStatements, st.TotalStatements,
			st.BindingIndependent, st.BindingDependent)
		for _, sd := range st.Sides {
			fmt.Printf("template: bindings %s %s reenact %d/%d\n", sd.Direction, sd.Bound, sd.Kept, st.TotalStatements)
		}
	}
	results, err := tpl.EvalBatch(bindings, workers)
	if err != nil {
		return err
	}
	failed := 0
	for i, r := range results {
		fmt.Printf("== binding %d %s ==\n", i+1, bindingLabel(bindings[i]))
		if r.Err != nil {
			fmt.Printf("error: %v\n", r.Err)
			failed++
			continue
		}
		fmt.Print(r.Delta)
	}
	if showStats {
		st := tpl.Stats()
		fmt.Printf("template: bindings=%d failed=%d evals=%d recompiles=%d\n",
			len(bindings), failed, st.Evals, st.Recompiles)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d bindings failed", failed, len(bindings))
	}
	return nil
}

// loadBindings reads the -bindings file: a JSON array of name→value
// objects in the engine's value encoding (the same shape the mahifd
// template eval endpoint accepts).
func loadBindings(path string) ([]map[string]mahif.Value, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []map[string]mahif.Value
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no bindings", path)
	}
	return out, nil
}

// bindingLabel renders a binding compactly for the per-result header.
func bindingLabel(b map[string]mahif.Value) string {
	raw, err := json.Marshal(b)
	if err != nil {
		return ""
	}
	return string(raw)
}
