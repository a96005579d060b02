package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"github.com/mahif/mahif/internal/algebra"
	"github.com/mahif/mahif/internal/delta"
	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/history"
	"github.com/mahif/mahif/internal/lru"
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
	// old and new list their rows in entry order, so the versions of
	// entries [a, b) are rows [oldAt[a], oldAt[b]) of old and [newAt[a],
	// newAt[b]) of new. lanes is sameLanes(old, new).
	oldAt, newAt []int
	lanes        bool
	// states holds each report query's prefix states (bandStates), by
	// the query's fingerprint, built by the first report that asks.
	states *lru.Cache[string, *bandStates]
}

// reportStates bounds the report queries whose states an artifact keeps
// per band table or original side: the least recently asked go first.
const reportStates = 16

// bandStates are one report query's γ states over its band table's
// prefixes, per side: old over the table's old versions, new over its
// new ones. nil (in the cache) when a fold of the table's rows failed:
// its reports take the merged route.
type bandStates struct {
	old, new prefixStates
}

// prefixStates are the γ states of one side's versions at checkpoints
// of its band table's entries: st[k] folds the versions of entries [0,
// at[k]), at[0] = 0 and the last at is the entry count n. Checkpoints
// sit ≈ √n entries apart, or as far apart as the groups the previous
// one holds where that is more, and the last gap takes the short tail,
// so together they hold O(n) groups however many the query has (at
// most 2n for a γ over the table's relation alone), not √n times as
// many. A band [lo, hi) folds as st[b] − st[a] for the outermost
// checkpoints lo ≤ at[a] < at[b] ≤ hi, plus the folds of the entries
// at its two ends, each short of one gap.
type prefixStates struct {
	at []int
	st []*algebra.GroupState
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
	bt.oldAt, bt.newAt = make([]int, len(ents)+1), make([]int, len(ents)+1)
	for i, e := range ents {
		bt.oldAt[i+1], bt.newAt[i+1] = bt.oldAt[i], bt.newAt[i]
		if e.old >= 0 {
			bt.oldAt[i+1]++
		}
		if e.new >= 0 {
			bt.newAt[i+1]++
		}
	}
	bt.lanes = sameLanes(bt.old.ColumnarView, bt.new.ColumnarView)
	bt.states = lru.New[string, *bandStates](reportStates)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if bt.tip, err = frame(tip, bt.old.ColumnarView); err != nil {
		return nil, err
	}
	// frame hashes the tip's rows: a build that outlived its deadline
	// there returns ctx.Err(), and no table is cached.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bt, nil
}

// frame returns, when every sub-bag of v's rows fits tip with its own
// rows as the ones it removes (storage.RowHashIndex.Frames), the tip's
// tuple that each row of v is, cell for cell and bit for bit; nil when
// they do not.
func frame(tip *storage.Relation, v *storage.ColumnarView) ([]schema.Tuple, error) {
	ix, err := tip.RowHashes()
	if err != nil {
		return nil, err
	}
	rows, ok := ix.Frames(v.Relation().Tuples)
	if !ok {
		return nil, nil
	}
	out := make([]schema.Tuple, len(rows))
	for i, r := range rows {
		out[i] = tip.Tuples[r]
	}
	return out, nil
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

// band returns the entries [lo, hi) whose versions differ between the
// binding v on the table's side and p0: the entries between p0 and v,
// all of them for a NULL binding.
func (bt *bandTable) band(slot *rangeSlot, v types.Value) (lo, hi int) {
	if v.IsNull() {
		return 0, len(bt.ents)
	}
	lo, hi = bt.cut(slot, v.AsFloat()), bt.cut(slot, slot.bound.AsFloat())
	return min(lo, hi), max(lo, hi)
}

// answer is the delta of the band [lo, hi): the bag difference of the
// two versions of its rows, listed in input order as the reenacted sides
// list them.
func (bt *bandTable) answer(lo, hi int) *delta.Result {
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
// binding, and reports at the artifact's version from the table's
// prefix states (bandReport), with the band's Minus as its frame when
// the table is framed.
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
	lo, hi := bt.band(art.slot, binding[art.slot.param])
	d := bt.answer(lo, hi)
	t.provisioned.Add(1)
	t.shared.work.provisioned.Add(1)
	t.shared.countDelta(delta.Work{Boxed: d.Size()})
	out := delta.Set{art.band.rel: d}
	if len(queries) == 0 {
		return out, nil, nil
	}
	rf := &reportFrame{prov: bandReport{bt: bt, lo: lo, hi: hi}, fallbacks: &t.reportFallbacks}
	if bt.tip != nil {
		rf.bags = map[string]bags{}
		if !d.Empty() {
			rf.bags[strings.ToLower(art.band.rel)] = bags{minus: d.Minus, plus: d.Plus}
		}
	}
	reps, routes, err := t.e.tipReports(ctx, queries, out, art.version, t.opts, t.shared, rf)
	t.reports.add(&routes, rf.provisioned)
	if err != nil {
		return nil, nil, err
	}
	return out, reps, nil
}

// bandReport provisions the reports of one band binding: the band [lo,
// hi) of table bt.
type bandReport struct {
	bt     *bandTable
	lo, hi int
}

// hypothetical merges the historical state with the table's prefix
// states at the checkpoints inside the band and the folds of its ends
// (see prefixStates), where the versions sit on the same lanes and no
// group is new.
func (br bandReport) hypothetical(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*algebra.GroupState, reportFallback, error) {
	bt := br.bt
	if !bt.lanes {
		return nil, whyLanes, nil
	}
	bs, err := bt.states.Do(ev.evalCtx(), algebra.Fingerprint(agg), func() (*bandStates, error) {
		return bt.foldStates(agg, h, hist, rel, ev)
	})
	if err != nil {
		return nil, whyNone, err
	}
	if bs == nil {
		return nil, whyFold, nil
	}
	// The checkpoints inside the band merge as prefix differences; its
	// ends are folded.
	var parts []signedState
	for _, v := range []struct {
		view *delta.HashedView
		at   []int
		ps   prefixStates
		sign int
	}{{bt.old, bt.oldAt, bs.old, -1}, {bt.new, bt.newAt, bs.new, 1}} {
		ends := [][2]int{{br.lo, br.hi}}
		a, b := sort.SearchInts(v.ps.at, br.lo), sort.SearchInts(v.ps.at, br.hi+1)-1
		if a < b {
			parts = append(parts, signedState{v.ps.st[b], v.sign}, signedState{v.ps.st[a], -v.sign})
			ends = [][2]int{{br.lo, v.ps.at[a]}, {v.ps.at[b], br.hi}}
		}
		for _, end := range ends {
			if v.at[end[0]] == v.at[end[1]] {
				continue
			}
			st, err := ev.foldRows(agg, h.prog, hist, rel, v.view.ColumnarView, v.at[end[0]], v.at[end[1]])
			if err != nil {
				return nil, whyFold, ev.evalCtx().Err()
			}
			parts = append(parts, signedState{st, v.sign})
		}
	}
	hyp, err := mergeStates(h.state, parts...)
	switch {
	case err != nil:
		return nil, whyFold, nil
	case newGroup(hyp, h.state):
		return nil, whyNewGroup, nil
	}
	return hyp, whyNone, nil
}

// foldStates folds agg's prefix states over the table's versions (see
// bandStates), or returns nil when a fold fails for the data's sake.
func (bt *bandTable) foldStates(agg *algebra.Aggregate, h *historical, hist *storage.Database, rel string, ev evaluator) (*bandStates, error) {
	n := len(bt.ents)
	gap := max(1, int(math.Round(math.Sqrt(float64(n)))))
	bs := &bandStates{}
	for _, v := range []struct {
		view *delta.HashedView
		at   []int
		out  *prefixStates
	}{{bt.old, bt.oldAt, &bs.old}, {bt.new, bt.newAt, &bs.new}} {
		acc := algebra.NewGroupState(agg.Funcs(), len(agg.GroupBy) > 0)
		v.out.at, v.out.st = []int{0}, []*algebra.GroupState{acc}
		for e := 0; e < n; {
			step := max(gap, acc.Len())
			next := e + step
			if n-next < step {
				next = n // the last gap takes the short tail
			}
			if v.at[e] < v.at[next] {
				st, err := ev.foldRows(agg, h.prog, hist, rel, v.view.ColumnarView, v.at[e], v.at[next])
				if err == nil {
					acc, err = mergeStates(acc, signedState{st, 1})
				}
				if err != nil {
					return nil, ev.evalCtx().Err()
				}
			}
			v.out.at, v.out.st = append(v.out.at, next), append(v.out.st, acc)
			e = next
		}
	}
	return bs, nil
}
