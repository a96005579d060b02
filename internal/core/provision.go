package core

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/reenact"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Provisioned range templates: a binding answered by lookup.
//
// Every statement of a range template's suffix without an INSERT …
// SELECT is tuple-local, so each row of the slotted relation at the
// modified position — each input row — has one final version per
// history, and only the slotted statement differs between them. Under a
// binding p on side s of p0, a row whose slot-column value c at the
// modified position is selected by exactly one of col ⋈ p and col ⋈ p0
// has the final version of side s's end (the conjunct FALSE on the
// fewer side, col IS NOT NULL on the other: see rangeSlot), and every
// other row has its original version in both histories. So p's delta is
// the bag difference of the two versions of the rows between p0 and p.
//
// A band table holds them once per side: the side's end, reenacted as a
// constant what-if through the side's keep set with every row annotated
// by its input position, pairs each row's original and end versions by
// that position and keeps the rows whose versions differ, sorted by c.
// A binding binary-searches its band (bandTable.answer) and takes the
// band's bag difference exactly as delta.ComputeColumnar does; no
// program runs. A NULL binding makes the conjunct NULL for every row:
// an UPDATE then rewrites none of them, as at the FALSE end, and a
// DELETE removes, besides what p0 removes, exactly the rows with a
// value in col that the IS NOT NULL end adds, so its band is its side's
// whole table, which holds no row whose c is NULL. Rows whose c is NaN
// or at least 2^53 in magnitude compare alike with every binding in the
// order, so they are in no band but a NULL binding's. The tables live with the artifact: each side's is built by
// its first binding (templateArtifact.tables) and dies when an append
// replaces the artifact.

// Why a template is not provisioned (TemplateStats.Provision).
const (
	provisionNotRange    = "not a range template"
	provisionInsertQuery = "insert query in suffix"
)

// provisionOf says why the template p plans over suffix cannot answer
// from band tables, "" when it can. Without an INSERT … SELECT only the
// slotted relation is tainted (dataslice.TaintedRelations), so a
// provisioned plan has one relation, p.rels[0], and both its ends.
func (p *plan) provisionOf(suffix *history.PaddedPair) string {
	if p.slot == nil {
		return provisionNotRange
	}
	for _, h := range []history.History{suffix.Orig, suffix.Mod} {
		for _, st := range h {
			if _, ok := st.(*history.InsertQuery); ok {
				return provisionInsertQuery
			}
		}
	}
	return ""
}

// bandPlan is what a provisioned template builds its band tables from:
// the slotted relation as the plan names it, the slot, and each side's
// end pair (plan.ends).
type bandPlan struct {
	rel  string
	slot *rangeSlot
	ends [2]*history.PaddedPair
}

// bandTable is one side's table: the versions of the rows whose
// original and end versions differ, in lanes, and one entry per row.
type bandTable struct {
	old, new *delta.HashedView
	// ents holds the entries with ordered keys (not NaN, below 2^53 in
	// magnitude) first, ents[:ordered], by key and then by input
	// position, and then the others by input position; no key is NULL
	// (candidate). byPos lists the entries in input order and rank[i] is
	// entry i's place in it.
	ents        []bandEntry
	ordered     int
	byPos, rank []int
	// tip is set when the table is framed: every sub-bag of old's rows
	// fits the artifact's tip with its own rows as the ones it removes
	// (storage.RowHashIndex.Frames), so a report takes a binding's Minus
	// as its frame without probing. tip[r] is then the tip's tuple that
	// old row r is, cell for cell and bit for bit, and Minus shares it.
	tip []schema.Tuple
}

// bandEntry is one row of a band table: its slot-column value at the
// modified position (when ordered), its input position, and its
// versions' rows in the table's old and new views, -1 where the history
// deleted it.
type bandEntry struct {
	key      float64
	pos      int
	old, new int
	off      bool // the key is off the order
}

// posColumn names the input-position annotation a band table's
// reenactment carries; no SQL identifier can be spelled like it.
const posColumn = "#pos"

// build reenacts side's end over db, the artifact's pinned snapshot, and
// frames the table's original versions against tip, the slotted
// relation at the artifact's version. It observes ctx between its
// phases and inside both reenactments.
func (bp *bandPlan) build(ctx context.Context, ev evaluator, db *storage.Database, side int, tip *storage.Relation) (*bandTable, error) {
	r, err := db.Relation(bp.slot.rel)
	if err != nil {
		return nil, err
	}
	arity, col := r.Schema.Arity(), r.Schema.ColIndex(bp.slot.col)
	// The input rows a band of the side can hold, annotated with their
	// positions: the rest keep their original version under every
	// binding of the side.
	var cand []int
	for pos, t := range r.Tuples {
		if bp.slot.candidate(t[col], side) {
			cand = append(cand, pos)
		}
	}
	in := storage.NewRelation(schema.New(r.Schema.Relation, append(slices.Clone(r.Schema.Columns), schema.Col(posColumn, types.KindInt))...))
	in.Tuples = make([]schema.Tuple, len(cand))
	flat := make([]types.Value, len(cand)*(arity+1))
	for i, pos := range cand {
		row := flat[i*(arity+1) : (i+1)*(arity+1) : (i+1)*(arity+1)]
		copy(row, r.Tuples[pos][:arity])
		row[arity] = types.Int(int64(pos))
		in.Tuples[i] = row
	}
	adb := db.With(in)

	// Each history's final version of every input row, by position.
	var views [2]*storage.ColumnarView
	var at [2][]int
	for i, h := range []history.History{bp.ends[side].Orig, bp.ends[side].Mod} {
		q, err := reenact.QueryForRelation(h, bp.slot.rel, adb, nil)
		if err != nil {
			return nil, err
		}
		if views[i], err = ev.runView(q, adb); err != nil {
			return nil, err
		}
		at[i] = make([]int, len(r.Tuples))
		for pos := range at[i] {
			at[i][pos] = -1
		}
		posCol := &views[i].Cols[arity]
		for row := 0; row < views[i].Rows; row++ {
			at[i][posCol.Value(row).AsInt()] = row
		}
	}
	vo, vm := views[0], views[1]
	differ := func(ro, rm int) bool {
		if ro < 0 || rm < 0 {
			return ro != rm
		}
		for c := range arity {
			if !vo.Cols[c].Value(ro).Equal(vm.Cols[c].Value(rm)) {
				return true
			}
		}
		return false
	}
	var ents []bandEntry
	for i, pos := range cand {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ro, rm := at[0][pos], at[1][pos]
		if !differ(ro, rm) {
			continue
		}
		e := bandEntry{pos: pos, old: ro, new: rm, off: !ordered(r.Tuples[pos][col])}
		if !e.off {
			e.key = r.Tuples[pos][col].AsFloat()
		}
		ents = append(ents, e)
	}
	slices.SortFunc(ents, func(a, b bandEntry) int {
		if a.off != b.off {
			if a.off {
				return 1
			}
			return -1
		}
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	bt := &bandTable{ents: ents, byPos: make([]int, len(ents)), rank: make([]int, len(ents))}
	for i, e := range ents {
		if !e.off {
			bt.ordered++
		}
		bt.byPos[i] = i
	}
	slices.SortFunc(bt.byPos, func(a, b int) int { return cmp.Compare(ents[a].pos, ents[b].pos) })
	for r, i := range bt.byPos {
		bt.rank[i] = r
	}

	// The versions' lanes, in entry order, without the annotation.
	gather := func(v *storage.ColumnarView, row func(*bandEntry) *int) *delta.HashedView {
		var rows []int
		for i := range ents {
			if r := row(&ents[i]); *r >= 0 {
				rows = append(rows, *r)
				*r = len(rows) - 1
			}
		}
		out := storage.NewColumnarView(schema.New(v.Schema.Relation, v.Schema.Columns[:arity]...), len(rows))
		if len(rows) > 0 {
			out.AppendRows(v.Cols[:arity], rows, v.Rows)
		}
		return delta.NewHashedView(out)
	}
	bt.old = gather(vo, func(e *bandEntry) *int { return &e.old })
	bt.new = gather(vm, func(e *bandEntry) *int { return &e.new })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix, err := tip.RowHashes()
	if err != nil {
		return nil, err
	}
	if rows, ok := ix.Frames(bt.old.Relation().Tuples); ok {
		bt.tip = make([]schema.Tuple, len(rows))
		for i, r := range rows {
			bt.tip[i] = tip.Tuples[r]
		}
	}
	return bt, nil
}

// candidate reports whether an input row whose slot-column value is v
// can be in a band of side: on the fewer side only a row col ⋈ p0
// selects, on the other only a row with a value in col it does not
// select. A value off the order (NaN, 2^53 or more in magnitude, not a
// number) is kept either way; its versions decide.
func (r *rangeSlot) candidate(v types.Value, side int) bool {
	if v.IsNull() {
		return false
	}
	if !ordered(v) {
		return true
	}
	p, p0 := v.AsFloat(), r.bound.AsFloat()
	var selected bool
	switch r.op {
	case expr.CmpLt:
		selected = p < p0
	case expr.CmpLe:
		selected = p <= p0
	case expr.CmpGt:
		selected = p > p0
	default:
		selected = p >= p0
	}
	return selected == (side == sideFewer)
}

// answer is the delta of the binding v on the table's side: the bag
// difference of the two versions of the rows between p0 and v, listed
// in input order as the reenacted sides list them.
func (bt *bandTable) answer(slot *rangeSlot, v types.Value) *delta.Result {
	lo, hi := 0, len(bt.ents)
	if !v.IsNull() {
		lo, hi = bt.cut(slot, v.AsFloat()), bt.cut(slot, slot.bound.AsFloat())
		lo, hi = min(lo, hi), max(lo, hi)
	}
	// The band's entries in input order: marked by rank, read in order.
	marks := make([]uint64, (len(bt.ents)+63)/64)
	for i := lo; i < hi; i++ {
		r := bt.rank[i]
		marks[r/64] |= 1 << (r % 64)
	}
	var oldIdx, newIdx []int
	for w, m := range marks {
		for ; m != 0; m &= m - 1 {
			e := &bt.ents[bt.byPos[w*64+bits.TrailingZeros64(m)]]
			if e.old >= 0 {
				oldIdx = append(oldIdx, e.old)
			}
			if e.new >= 0 {
				newIdx = append(newIdx, e.new)
			}
		}
	}
	d, _ := delta.ComputeRows(bt.old, bt.new, oldIdx, newIdx, bt.tip)
	return d
}

// cut splits the ordered entries where col ⋈ q changes its truth value:
// it holds for every entry before the cut or for every entry from it
// on, and not for the others. So col ⋈ p and col ⋈ p0 disagree exactly
// on the entries between their cuts.
func (bt *bandTable) cut(slot *rangeSlot, q float64) int {
	// Under > and ≤ the entries up to q fall on one side, under ≥ and <
	// the entries below q.
	after := func(k float64) bool { return k > q }
	if slot.op == expr.CmpGe || slot.op == expr.CmpLt {
		after = func(k float64) bool { return k >= q }
	}
	return sort.Search(bt.ordered, func(i int) bool { return after(bt.ents[i].key) })
}

// evalBand answers binding, on side of art's range slot, from that
// side's band table, building it first when this is the side's first
// binding, and reports at the artifact's version with the band's Minus
// as its frame when the table is framed.
func (t *Template) evalBand(ctx context.Context, ev evaluator, art *templateArtifact, side int, binding map[string]types.Value, queries []AggregateQuery) (delta.Set, []AggregateReport, error) {
	bt, err := art.tables[side].Do(ctx, func() (*bandTable, error) {
		tip, err := t.shared.snaps.TipSnapshotCtx(ctx, art.version)
		if err != nil {
			return nil, err
		}
		rel, err := tip.Relation(art.band.slot.rel)
		if err != nil {
			return nil, err
		}
		return art.band.build(ctx, ev, art.db, side, rel)
	})
	if err != nil {
		return nil, nil, err
	}
	d := bt.answer(art.slot, binding[art.slot.param])
	t.provisioned.Add(1)
	t.shared.work.provisioned.Add(1)
	t.shared.countDelta(delta.Work{Boxed: d.Size()})
	out := delta.Set{art.band.rel: d}
	var framed map[string]bags
	if bt.tip != nil {
		framed = map[string]bags{}
		if !d.Empty() {
			framed[strings.ToLower(art.band.rel)] = bags{minus: d.Minus, plus: d.Plus}
		}
	}
	reps, routes, err := t.e.tipReports(ctx, queries, out, art.version, t.opts, t.shared, framed)
	t.reports.add(&routes)
	if err != nil {
		return nil, nil, err
	}
	return out, reps, nil
}
