package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/types"
	"github.com/mahif/mahif/internal/workload"
)

// spec defines one workload. Sizes are constants of the benchmark, not
// options: both sides of any later comparison must run the same work.
type spec struct {
	name string
	// Taxi rows, history length U and dependent share D (§13.2); M is 1
	// and T is 10 % everywhere.
	rows, updates, depPct int
	// positions is how many distinct history positions the what-if ops
	// replace a statement at; against the 64-entry snapshot cache, 4
	// fits and 75 does not.
	positions int
	// warmup ops run untimed inside set-up; the first oracleOps of them
	// are checked against the oracle.
	warmup int
	// callers is the closed-loop client count (never above nproc = 2).
	callers int
	// mix maps an op index (mod its length) to the op kind.
	mix []opKind
	// durable serves the engine over HTTP from a WAL-backed store.
	durable bool
}

const oracleOps = 8

// opsPerSecond fixes the timed op count as opsPerSecond × --seconds: a
// fixed count, not a fixed duration, so a faster engine finishes sooner
// instead of doing more work. The workloads are sized so that the timed
// phase takes 20 to 24 s at the gate's --seconds 24 on the reference
// box; its 600 ops visit every hot position equally often.
const opsPerSecond = 25

type opKind uint8

const (
	opWhatIf opKind = iota
	opTemplate
	opAppend
)

func (k opKind) String() string { return [...]string{"whatif", "template", "append"}[k] }

var specs = []spec{
	{
		// Large relation, short history, 4 hot positions: slicing is cheap,
		// so the passes over the relation (compress, executor, delta)
		// dominate and solver work must not show.
		name: "scan_heavy",
		rows: 32000, updates: 50, depPct: 10, positions: 4,
		warmup: 8, callers: 1,
		mix: []opKind{opWhatIf},
	},
	{
		// Tiny relation, long half-dependent history, 75 positions and
		// fresh thresholds: memo misses make slicing + solver dominate and
		// kernel work must not show.
		name: "slice_heavy",
		rows: 5000, updates: 200, depPct: 50, positions: 75,
		warmup: 8, callers: 1,
		mix: []opKind{opWhatIf},
	},
	{
		// Two compiled templates answer non-repeating bindings with a
		// GROUP BY report: no solver work per op, cost is substitute +
		// modified-side exec + delta + aggregate.
		name: "template_sweep",
		rows: 8000, updates: 100, depPct: 10, positions: 1,
		warmup: 8, callers: 1,
		mix: []opKind{opTemplate},
	},
	{
		// HTTP service over a fsynced WAL, 70 % what-if + 20 % template
		// eval + 10 % appends from 2 clients: writes beside reads, so
		// invalidation and recompile cost shows in the tail.
		name: "serve_mixed",
		rows: 9000, updates: 50, depPct: 10, positions: 4,
		warmup: 10, callers: 2, durable: true,
		mix: []opKind{opWhatIf, opWhatIf, opTemplate, opWhatIf, opWhatIf, opAppend, opWhatIf, opWhatIf, opTemplate, opWhatIf},
	},
}

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to test size; the op mix and code paths stay.
func (sp spec) smoke() spec {
	sp.rows = max(sp.rows/100, 300)
	sp.updates = max(sp.updates/5, 10)
	sp.positions = min(sp.positions, 5)
	return sp
}

// shapeSeed fixes which history positions are modified, dependent and
// independent, and where the independent bands sit. The shape decides
// how many statements every op slices and reenacts, so it belongs to
// the workload's definition: --seed varies the table contents and the
// op sequence, never how much work an op is.
const shapeSeed = 20220612

// generate builds the seeded Taxi table and the workload's history.
func (sp spec) generate(seed int64) (*workload.Workload, error) {
	return workload.Generate(workload.Taxi(sp.rows, seed), workload.Config{
		Updates:      sp.updates,
		Mods:         1,
		DependentPct: sp.depPct,
		AffectedPct:  10,
		Seed:         shapeSeed,
	})
}

// Thresholds of the hypothetical statements. The historical statements
// select trip_seconds >= 9000 (T = 10 %) and the independent ones
// require trip_seconds < 9000, so a threshold at or above 9000 keeps
// every independent statement provably independent; the delta is the
// band between 9000 and the threshold.
const (
	cutLo = 9010
	cutHi = 9990
)

// op is one operation of a workload's sequence.
type op struct {
	kind opKind
	pos  int     // whatif: the history position whose statement is replaced
	cut  int64   // whatif: new threshold; template 0: the $cut binding
	tpl  int     // template: which of the two templates
	bump float64 // template 1: the $bump binding
	lo   int64   // append: start of the statement's trip_miles band
}

func (o op) String() string {
	return fmt.Sprintf("%s pos=%d cut=%d tpl=%d bump=%g lo=%d", o.kind, o.pos, o.cut, o.tpl, o.bump, o.lo)
}

// hotPositions returns the positions what-if ops replace at: the
// latest sp.positions of the workload's modified statement and its
// dependent ones (all select trip_seconds >= 9000), ascending.
func (sp spec) hotPositions(w *workload.Workload) []int {
	pos := append([]int{w.Mods[0].(history.Replace).Pos}, w.DependentPos...)
	sort.Ints(pos)
	return pos[max(0, len(pos)-sp.positions):]
}

// genOps derives the op sequence from the seed. Every seed draws from
// the same population — each hot position equally often, thresholds on
// an even grid over [cutLo, cutHi) — and the seed decides the order and
// the pairing, so runs with different seeds do the same amount of work
// in a different order. No threshold or binding repeats while n stays
// below cutHi-cutLo, so neither the solver memo nor the result cache can
// answer an op from an earlier one. The warm-up ops are spread evenly
// over the positions instead: they fill the snapshot cache, and set-up
// time does not depend on which positions a seed happens to start with.
func (sp spec) genOps(w *workload.Workload, seed int64, n int) []op {
	r := rand.New(rand.NewSource(seed))
	grid := r.Perm(n)
	cut := func(i int) int64 { return int64(cutLo + grid[i]*(cutHi-cutLo)/n) }
	pos := sp.hotPositions(w)
	order := r.Perm(len(pos))
	ops := make([]op, n)
	whatIfs, templates := 0, 0
	for i := range ops {
		o := op{kind: sp.mix[i%len(sp.mix)]}
		switch o.kind {
		case opWhatIf:
			if i < sp.warmup {
				o.pos = pos[i*len(pos)/sp.warmup]
			} else {
				o.pos = pos[order[whatIfs%len(order)]]
				whatIfs++
			}
			o.cut = cut(i)
		case opTemplate:
			o.tpl = templateMix[templates%len(templateMix)]
			templates++
			o.cut = cut(i)
			o.bump = 0.25 * float64(1+i)
		case opAppend:
			o.lo = int64(r.Intn(workload.SelRange - appendBand))
		}
		ops[i] = o
	}
	return ops
}

// templateMix is the order template ops take the two templates in: two
// cond-slot evals, one set-slot eval. The two cost differently (the
// cond-slot template keeps more statements), and an even split would
// put the median latency in the gap between the two clusters, where it
// measures nothing.
var templateMix = []int{0, 0, 1}

// opsHash fingerprints an op sequence.
func opsHash(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintln(h, o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// whatIfMods is the what-if of an op: replace the statement at o.pos by
// the same update under the new threshold.
func whatIfMods(w *workload.Workload, o op) []history.Modification {
	orig := w.History[o.pos].(*history.Update)
	return []history.Modification{history.Replace{Pos: o.pos, Stmt: &history.Update{
		Rel:   orig.Rel,
		Set:   orig.Set,
		Where: expr.Ge(expr.Column(w.Dataset.SelAttr), expr.IntConst(o.cut)),
	}}}
}

// templateMods returns the two parameterized scenarios: a cond-slot
// template (the threshold is the slot, so data slicing is off and the
// keep-set is conservative) and a set-slot template (the written value
// is the slot, so it slices like a constant scenario).
func templateMods(w *workload.Workload) [][]history.Modification {
	base := w.Mods[0].(history.Replace)
	orig := w.History[base.Pos].(*history.Update)
	sel := expr.Column(w.Dataset.SelAttr)
	return [][]history.Modification{
		{history.Replace{Pos: base.Pos, Stmt: &history.Update{
			Rel:   orig.Rel,
			Set:   orig.Set,
			Where: expr.Ge(sel, expr.Parameter("cut")),
		}}},
		{history.Replace{Pos: base.Pos, Stmt: &history.Update{
			Rel:   orig.Rel,
			Set:   []history.SetClause{{Col: "tips", E: expr.Add(expr.Column("tips"), expr.Parameter("bump"))}},
			Where: orig.Where,
		}}},
	}
}

// binding is the op's binding for its template.
func (o op) binding() map[string]types.Value {
	if o.tpl == 0 {
		return map[string]types.Value{"cut": types.Int(o.cut)}
	}
	return map[string]types.Value{"bump": types.Float(o.bump)}
}

// aggregateSQL is the report attached to template evals and served
// what-ifs.
const aggregateSQL = "SELECT company, SUM(tips) AS tips, COUNT(*) AS n FROM trips GROUP BY company"

// appendBand is the width of an appended statement's trip_miles band
// (0.05 % of the rows).
const appendBand = 5

// appendStmt is an appended statement: a narrow band below every
// modified threshold, so it is provably independent of each what-if.
func appendStmt(w *workload.Workload, o op) history.Statement {
	sel, sel2 := expr.Column(w.Dataset.SelAttr), expr.Column(w.Dataset.SelAttr2)
	return &history.Update{
		Rel: w.Dataset.Rel.Schema.Relation,
		Set: []history.SetClause{{Col: "extras", E: expr.Add(expr.Column("extras"), expr.FloatConst(1))}},
		Where: expr.AndOf(
			expr.Lt(sel, expr.IntConst(9000)),
			expr.Ge(sel2, expr.IntConst(o.lo)),
			expr.Lt(sel2, expr.IntConst(o.lo+appendBand)),
		),
	}
}
