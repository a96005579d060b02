package storage

import (
	"math"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// viewLineage ties a replayed relation to the columnar view of the
// published relation its replay started from. A snapshot replay copies
// its start's row slice and writes every row it changes fresh
// (Relation.shareRows, PrepareRewrite), and published rows never
// change, so a position whose row pointer is the start's holds the
// start's row: only the changed positions can differ from the start's
// view. The lineage holds that view and those positions, never the
// start relation, and SharedColumnar drops it as soon as the view is
// built.
type viewLineage struct {
	base    *ColumnarView
	changed []int32 // ascending positions whose row is not the start's
}

// inheritViews gives every relation of d, a replay of start, the
// lineage of the relation of its name in start (see lineageOf).
func (d *Database) inheritViews(start *Database) {
	for k, r := range d.rels {
		if s, ok := start.rels[k]; ok {
			r.lineage = lineageOf(s, r)
		}
	}
}

// lineageOf returns r's lineage from start, or nil when deriving its
// view would not pay or could not hold: start is not a published
// relation whose view is built, the two differ in layout or length, or
// more than half of r's positions hold a row that is not start's.
func lineageOf(start, r *Relation) *viewLineage {
	base := start.builtView()
	n := len(r.Tuples)
	if base == nil || len(start.Tuples) != n || !start.Schema.Equal(r.Schema) {
		return nil
	}
	var changed []int32
	for p, t := range r.Tuples {
		if old := start.Tuples[p]; len(t) == len(old) && (len(t) == 0 || &t[0] == &old[0]) {
			continue
		}
		if 2*(len(changed)+1) > n {
			return nil
		}
		changed = append(changed, int32(p))
	}
	return &viewLineage{base: base, changed: changed}
}

// derive builds r's view from the lineage's, lane for lane the view
// Transpose builds, CheckRowArity error included: a column no changed
// row writes a different cell into aliases the start's lane and its
// NULL blocks, any other column is transposed alone.
func (l *viewLineage) derive(r *Relation) (*ColumnarView, error) {
	rows := make([]schema.Tuple, len(l.changed))
	for i, p := range l.changed {
		rows[i] = r.Tuples[p]
	}
	// The start's rows passed this check when its view was built, so the
	// first short row of r, if any, is a changed one.
	if err := CheckRowArity(rows, r.Schema.Arity()); err != nil {
		return nil, err
	}
	v := &ColumnarView{Schema: r.Schema, Rows: len(r.Tuples), Cols: make([]ColVec, r.Schema.Arity())}
	v.nullBlocks = make([][]bool, len(v.Cols))
	for c := range v.Cols {
		if l.unchanged(rows, c) {
			v.Cols[c], v.nullBlocks[c] = l.base.Cols[c], l.base.nullBlocks[c]
		} else {
			v.fillColumn(r.Tuples, c)
		}
	}
	return v, nil
}

// unchanged reports whether every changed row in rows holds the start's
// cell in column c.
func (l *viewLineage) unchanged(rows []schema.Tuple, c int) bool {
	old := &l.base.Cols[c]
	for i, t := range rows {
		if !old.holds(int(l.changed[i]), t[c]) {
			return false
		}
	}
	return true
}

// holds reports whether cell r of the lane is x, bit for bit: the lane
// a transposition of x would hold at r. On a boxed cell == is that
// identity (see types.Value).
func (c *ColVec) holds(r int, x types.Value) bool {
	if c.Kind == types.KindNull {
		return x == c.Vals[r]
	}
	if c.Nulls != nil && c.Nulls[r] {
		return x.IsNull()
	}
	if x.Kind() != c.Kind {
		return false
	}
	switch c.Kind {
	case types.KindInt:
		return x.AsInt() == c.Ints[r]
	case types.KindFloat:
		return math.Float64bits(x.AsFloat()) == math.Float64bits(c.Floats[r])
	}
	return x.AsString() == c.Strs[r]
}
