package storage

import (
	"fmt"
	"slices"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// ColVec is one column of rows in columnar form: a single-kind typed
// lane (8-byte ints or floats, or a string slice) plus a null mask, or
// the boxed fallback lane of tagged types.Value cells when the column
// mixes kinds at runtime. The vectorized executor flows batches of
// ColVecs so its hot kernels (comparisons, SET arithmetic, hashing)
// run branch-free over machine types instead of paying a 32-byte
// tagged-union load and a kind branch per cell; the binary checkpoint
// codec writes the same representation as typed pages.
//
// Exactly one lane is active, selected by Kind:
//
//	KindInt    → Ints   (Nulls marks NULL cells; their payload is garbage)
//	KindFloat  → Floats (likewise)
//	KindString → Strs   (likewise)
//	KindNull   → Vals   (boxed fallback: every cell carries its own kind)
//
// A nil Nulls mask means the typed lane holds no NULLs — the common
// case, and the one the tight loops specialize on. Bool columns and
// mixed-kind columns always take the boxed lane: single-kind bools are
// too rare to earn a lane.
type ColVec struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
	Vals   []types.Value
}

// IsNull reports whether cell r is NULL.
func (c *ColVec) IsNull(r int) bool {
	if c.Kind == types.KindNull {
		return c.Vals[r].IsNull()
	}
	return c.Nulls != nil && c.Nulls[r]
}

// Value boxes cell r. It is the typed-to-boxed boundary for code
// outside the specialized kernels (generic expression fallbacks, join
// output assembly, candidate verification).
func (c *ColVec) Value(r int) types.Value {
	switch c.Kind {
	case types.KindInt:
		if c.Nulls != nil && c.Nulls[r] {
			return types.Null()
		}
		return types.Int(c.Ints[r])
	case types.KindFloat:
		if c.Nulls != nil && c.Nulls[r] {
			return types.Null()
		}
		return types.Float(c.Floats[r])
	case types.KindString:
		if c.Nulls != nil && c.Nulls[r] {
			return types.Null()
		}
		return types.String(c.Strs[r])
	}
	return c.Vals[r]
}

// BoxInto writes the boxed view of the live cells into out (sel nil →
// cells 0..n-1, else the listed rows). Positions outside the selection
// are left untouched, matching the executor's batch contract.
func (c *ColVec) BoxInto(out []types.Value, sel []int, n int) {
	switch c.Kind {
	case types.KindInt:
		if sel == nil {
			for r := 0; r < n; r++ {
				out[r] = types.Int(c.Ints[r])
			}
		} else {
			for _, r := range sel {
				out[r] = types.Int(c.Ints[r])
			}
		}
	case types.KindFloat:
		if sel == nil {
			for r := 0; r < n; r++ {
				out[r] = types.Float(c.Floats[r])
			}
		} else {
			for _, r := range sel {
				out[r] = types.Float(c.Floats[r])
			}
		}
	case types.KindString:
		if sel == nil {
			for r := 0; r < n; r++ {
				out[r] = types.String(c.Strs[r])
			}
		} else {
			for _, r := range sel {
				out[r] = types.String(c.Strs[r])
			}
		}
	default:
		if sel == nil {
			copy(out[:n], c.Vals[:n])
		} else {
			for _, r := range sel {
				out[r] = c.Vals[r]
			}
		}
		return
	}
	if c.Nulls != nil {
		if sel == nil {
			for r := 0; r < n; r++ {
				if c.Nulls[r] {
					out[r] = types.Null()
				}
			}
		} else {
			for _, r := range sel {
				if c.Nulls[r] {
					out[r] = types.Null()
				}
			}
		}
	}
}

// FoldHash folds every live cell into its row's hash accumulator, hs[r]
// for row r (the per-column step of a row-wise typed tuple hash, equal
// to chaining schema.HashValue over boxed cells).
func (c *ColVec) FoldHash(hs []uint64, sel []int, n int) {
	switch c.Kind {
	case types.KindInt:
		if sel == nil {
			for r := 0; r < n; r++ {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashNumeric(hs[r], float64(c.Ints[r]))
			}
		} else {
			for _, r := range sel {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashNumeric(hs[r], float64(c.Ints[r]))
			}
		}
	case types.KindFloat:
		if sel == nil {
			for r := 0; r < n; r++ {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashNumeric(hs[r], c.Floats[r])
			}
		} else {
			for _, r := range sel {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashNumeric(hs[r], c.Floats[r])
			}
		}
	case types.KindString:
		if sel == nil {
			for r := 0; r < n; r++ {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashString(hs[r], c.Strs[r])
			}
		} else {
			for _, r := range sel {
				if c.Nulls != nil && c.Nulls[r] {
					hs[r] = schema.HashNull(hs[r])
					continue
				}
				hs[r] = schema.HashString(hs[r], c.Strs[r])
			}
		}
	default:
		if sel == nil {
			for r := 0; r < n; r++ {
				hs[r] = schema.HashValue(hs[r], c.Vals[r])
			}
		} else {
			for _, r := range sel {
				hs[r] = schema.HashValue(hs[r], c.Vals[r])
			}
		}
	}
}

// FoldHashRows is FoldHash over a gathered selection: it folds cell
// rows[i] into hs[i], so the accumulators of a residual are dense.
func (c *ColVec) FoldHashRows(hs []uint64, rows []int) {
	hs = hs[:len(rows)]
	switch c.Kind {
	case types.KindInt:
		for i, r := range rows {
			if c.Nulls != nil && c.Nulls[r] {
				hs[i] = schema.HashNull(hs[i])
				continue
			}
			hs[i] = schema.HashNumeric(hs[i], float64(c.Ints[r]))
		}
	case types.KindFloat:
		for i, r := range rows {
			if c.Nulls != nil && c.Nulls[r] {
				hs[i] = schema.HashNull(hs[i])
				continue
			}
			hs[i] = schema.HashNumeric(hs[i], c.Floats[r])
		}
	case types.KindString:
		for i, r := range rows {
			if c.Nulls != nil && c.Nulls[r] {
				hs[i] = schema.HashNull(hs[i])
				continue
			}
			hs[i] = schema.HashString(hs[i], c.Strs[r])
		}
	default:
		for i, r := range rows {
			hs[i] = schema.HashValue(hs[i], c.Vals[r])
		}
	}
}

// HashCell folds cell r into h; ok is false for a NULL cell (the
// join-key contract: NULL keys never match, so callers skip the row).
func (c *ColVec) HashCell(h uint64, r int) (uint64, bool) {
	switch c.Kind {
	case types.KindInt:
		if c.Nulls != nil && c.Nulls[r] {
			return 0, false
		}
		return schema.HashNumeric(h, float64(c.Ints[r])), true
	case types.KindFloat:
		if c.Nulls != nil && c.Nulls[r] {
			return 0, false
		}
		return schema.HashNumeric(h, c.Floats[r]), true
	case types.KindString:
		if c.Nulls != nil && c.Nulls[r] {
			return 0, false
		}
		return schema.HashString(h, c.Strs[r]), true
	}
	v := c.Vals[r]
	if v.IsNull() {
		return 0, false
	}
	return schema.HashValue(h, v), true
}

// grow returns s resized to n cells, reusing the backing array when it
// is large enough (cell contents are unspecified either way).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// FillFromTuples transposes column col of rows into c, attempting the
// typed lane want (a schema column kind) and falling back to the boxed
// lane on the first cell whose runtime kind is neither want nor NULL —
// so a mixed-kind column costs one partial pass, never wrong data.
// Backing arrays are reused across fills; the null mask is rebuilt
// (nil when the window holds no NULLs). Rows must have at least col+1
// cells.
func (c *ColVec) FillFromTuples(rows []schema.Tuple, col int, want types.Kind) {
	n := len(rows)
	c.Nulls = nil
	switch want {
	case types.KindInt:
		c.Ints = grow(c.Ints, n)
		for i, t := range rows {
			v := t[col]
			switch v.Kind() {
			case types.KindInt:
				c.Ints[i] = v.AsInt()
			case types.KindNull:
				c.Ints[i] = 0
				c.setNull(i, n)
			default:
				c.fillBoxed(rows, col)
				return
			}
		}
		c.Kind = types.KindInt
	case types.KindFloat:
		c.Floats = grow(c.Floats, n)
		for i, t := range rows {
			v := t[col]
			switch v.Kind() {
			case types.KindFloat:
				c.Floats[i] = v.AsFloat()
			case types.KindNull:
				c.Floats[i] = 0
				c.setNull(i, n)
			default:
				c.fillBoxed(rows, col)
				return
			}
		}
		c.Kind = types.KindFloat
	case types.KindString:
		c.Strs = grow(c.Strs, n)
		for i, t := range rows {
			v := t[col]
			switch v.Kind() {
			case types.KindString:
				c.Strs[i] = v.AsString()
			case types.KindNull:
				c.Strs[i] = ""
				c.setNull(i, n)
			default:
				c.fillBoxed(rows, col)
				return
			}
		}
		c.Kind = types.KindString
	default:
		c.fillBoxed(rows, col)
	}
}

// setNull marks cell i NULL, allocating the n-cell mask on first use.
func (c *ColVec) setNull(i, n int) {
	if c.Nulls == nil {
		c.Nulls = make([]bool, n)
	}
	c.Nulls[i] = true
}

// SetCellNull marks cell r of a typed lane NULL (its payload is left as
// garbage), allocating the n-cell mask on first use. Kernels that
// overwrite individual cells of a lane use it to maintain the mask.
func (c *ColVec) SetCellNull(r, n int) { c.setNull(r, n) }

// ClearCellNull clears cell r's NULL flag if a mask exists.
func (c *ColVec) ClearCellNull(r int) {
	if c.Nulls != nil {
		c.Nulls[r] = false
	}
}

// fillBoxed is the mixed-kind fallback of FillFromTuples.
func (c *ColVec) fillBoxed(rows []schema.Tuple, col int) {
	c.Kind = types.KindNull
	c.Nulls = nil
	c.Vals = grow(c.Vals, len(rows))
	for i, t := range rows {
		c.Vals[i] = t[col]
	}
}

// CopyFrom makes c a copy of src's first n cells, on src's lane, through
// appendFrom: c's array for that lane is refilled when it has room, and
// a NULL mask is allocated only when a copied cell is NULL.
func (c *ColVec) CopyFrom(src *ColVec, n int) { c.appendFrom(src, nil, n, n, 0, n) }

// appendLive appends the live cells of src (sel nil → the first n cells)
// to dst.
func appendLive[T any](dst, src []T, sel []int, n int) []T {
	if sel == nil {
		return append(dst, src[:n]...)
	}
	dst = slices.Grow(dst, len(sel))
	for _, r := range sel {
		dst = append(dst, src[r])
	}
	return dst
}

// appendFrom appends the live cells of src (sel nil → the first n cells)
// to c, which holds have cells; live is how many that is, and reserve
// the capacity (in cells) to give a lane this call has to allocate. An
// empty c adopts src's lane, refilling the array it held on that lane
// before when there is one with room (ColumnarView.Reset). A column
// need not stay on one lane for a whole result — FillFromTuples falls
// back to boxed on the first deviating cell, a reenacted SET can write
// a float into an int column — so when src arrives on another lane than
// the cells accumulated so far, c is demoted to the boxed lane first
// and stays there. A typed
// lane's NULL mask appears with the first live NULL and is back-filled
// for the cells before it.
func (c *ColVec) appendFrom(src *ColVec, sel []int, n, live, have, reserve int) {
	reserve = max(reserve, have+live)
	if have == 0 {
		old := *c
		*c = ColVec{Kind: src.Kind}
		switch src.Kind {
		case types.KindInt:
			c.Ints = refill(old.Ints, reserve)
		case types.KindFloat:
			c.Floats = refill(old.Floats, reserve)
		case types.KindString:
			c.Strs = refill(old.Strs, reserve)
		default:
			c.Vals = refill(old.Vals, reserve)
		}
	}
	if c.Kind != src.Kind && c.Kind != types.KindNull {
		vals := make([]types.Value, have, reserve)
		c.BoxInto(vals, nil, have)
		*c = ColVec{Kind: types.KindNull, Vals: vals}
	}
	switch c.Kind {
	case types.KindInt:
		c.Ints = appendLive(c.Ints, src.Ints, sel, n)
	case types.KindFloat:
		c.Floats = appendLive(c.Floats, src.Floats, sel, n)
	case types.KindString:
		c.Strs = appendLive(c.Strs, src.Strs, sel, n)
	default:
		if src.Kind == types.KindNull {
			c.Vals = appendLive(c.Vals, src.Vals, sel, n)
		} else if sel == nil {
			for r := 0; r < n; r++ {
				c.Vals = append(c.Vals, src.Value(r))
			}
		} else {
			for _, r := range sel {
				c.Vals = append(c.Vals, src.Value(r))
			}
		}
		return
	}
	switch {
	case src.Nulls != nil && (c.Nulls != nil || src.anyNull(sel, n)):
		if c.Nulls == nil {
			c.Nulls = make([]bool, have, reserve)
		}
		c.Nulls = appendLive(c.Nulls, src.Nulls, sel, n)
	case c.Nulls != nil:
		c.Nulls = append(c.Nulls, make([]bool, live)...)
	}
}

// refill returns s emptied when it has room for n cells, else a new
// array with that room.
func refill[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:0]
	}
	return make([]T, 0, n)
}

// anyNull reports whether a live cell of a masked typed lane is NULL.
func (c *ColVec) anyNull(sel []int, n int) bool {
	if sel == nil {
		return slices.Contains(c.Nulls[:n], true)
	}
	for _, r := range sel {
		if c.Nulls[r] {
			return true
		}
	}
	return false
}

// ColumnarView is a point-in-time columnar transpose of a relation:
// one ColVec per schema column, typed wherever the column is
// single-kind at that instant. It shares no storage with the relation
// and does not track later mutation — build it from a stable snapshot
// (the same quiescence contract as reading Relation.Tuples).
type ColumnarView struct {
	Schema *schema.Schema
	Rows   int
	Cols   []ColVec

	// nullBlocks[c][i] reports whether rows [i·nullBlockRows,
	// (i+1)·nullBlockRows) of typed column c hold a NULL; nil for a
	// column without a mask. Window reads it to keep the no-NULL
	// specialisation of the typed kernels for the blocks that earn it,
	// although a view has one relation-wide mask per column.
	nullBlocks [][]bool

	// reserve is the row capacity AppendRows gives a lane it allocates
	// (see NewColumnarView).
	reserve int
}

// nullBlockRows is the granularity of ColumnarView.nullBlocks — the
// executor's default batch size, so a default scan's window is one block.
const nullBlockRows = 1024

// BuildColumnar transposes r into a columnar view, inferring each
// column's lane from the schema kind with per-cell verification (a
// column whose runtime cells deviate from the declared kind takes the
// boxed lane, so the view is always faithful). Every tuple must have at
// least the schema's arity (see CheckRowArity).
func BuildColumnar(r *Relation) *ColumnarView {
	v := &ColumnarView{Schema: r.Schema, Rows: len(r.Tuples), Cols: make([]ColVec, r.Schema.Arity())}
	v.nullBlocks = make([][]bool, len(v.Cols))
	for c := range v.Cols {
		v.fillColumn(r.Tuples, c)
	}
	return v
}

// fillColumn transposes column c of rows, the view's rows, into a fresh
// lane, with the column's NULL block summary.
func (v *ColumnarView) fillColumn(rows []schema.Tuple, c int) {
	col := &v.Cols[c]
	col.FillFromTuples(rows, c, v.Schema.Columns[c].Type)
	if col.Nulls == nil {
		return
	}
	blocks := make([]bool, (v.Rows+nullBlockRows-1)/nullBlockRows)
	for i, null := range col.Nulls {
		if null {
			blocks[i/nullBlockRows] = true
		}
	}
	v.nullBlocks[c] = blocks
}

// Columnar builds the columnar view of the relation's current tuples.
func (r *Relation) Columnar() *ColumnarView { return BuildColumnar(r) }

// NewColumnarView returns an empty view of the given schema for
// AppendRows to fill: the form a vectorized run leaves its result in.
// rows is how many rows the caller expects to append; lanes are
// allocated for that many, so a caller that knows gets a view without
// slack or regrowth, and one that does not passes 0.
func NewColumnarView(s *schema.Schema, rows int) *ColumnarView {
	return &ColumnarView{Schema: s, Cols: make([]ColVec, s.Arity()), reserve: rows}
}

// AppendRows appends the live rows of a column batch (sel nil → rows
// 0..n-1, else the listed rows) lane-wise; cols holds one column per
// view column. Every cell is copied, so the batch may be reused, and a
// column keeps its typed lane for as long as every batch agrees on it
// (see ColVec.appendFrom). The view must not be one a relation shares
// (SharedColumnar), and it has no per-block NULL summary: Window reports
// a masked column's mask for every window.
func (v *ColumnarView) AppendRows(cols []ColVec, sel []int, n int) {
	live := n
	if sel != nil {
		live = len(sel)
	}
	if live == 0 {
		return
	}
	for c := range v.Cols {
		v.Cols[c].appendFrom(&cols[c], sel, n, live, v.Rows, v.reserve)
	}
	v.Rows += live
}

// Reset empties v into a view of schema s with room reserved for rows
// rows, for AppendRows to fill again: each column keeps its arrays, and
// refills one when its first cells arrive on the lane it was on. The
// cells of string and boxed lanes are cleared, so that an emptied view
// keeps no string or value it held reachable. Nothing may read v's old
// rows afterwards.
func (v *ColumnarView) Reset(s *schema.Schema, rows int) {
	cols := v.Cols[:cap(v.Cols)]
	for c := range cols {
		col := &cols[c]
		clear(col.Strs)
		clear(col.Vals)
		*col = ColVec{Kind: col.Kind, Ints: col.Ints[:0], Floats: col.Floats[:0], Strs: col.Strs[:0], Vals: col.Vals[:0]}
	}
	if len(cols) < s.Arity() {
		cols = append(cols, make([]ColVec, s.Arity()-len(cols))...)
	}
	*v = ColumnarView{Schema: s, Cols: cols[:s.Arity()], reserve: rows}
}

// Window points dst[c] at rows [lo,hi) of column c, for every column.
// Nothing is copied: the lanes alias the view, capped at hi, and are
// read-only to the caller like the view itself. A typed column's Nulls
// is nil when no block the window touches holds a NULL.
func (v *ColumnarView) Window(dst []ColVec, lo, hi int) {
	for c := range v.Cols {
		col := &v.Cols[c]
		w := ColVec{Kind: col.Kind}
		switch col.Kind {
		case types.KindInt:
			w.Ints = col.Ints[lo:hi:hi]
		case types.KindFloat:
			w.Floats = col.Floats[lo:hi:hi]
		case types.KindString:
			w.Strs = col.Strs[lo:hi:hi]
		default:
			w.Vals = col.Vals[lo:hi:hi]
		}
		if col.Nulls != nil && v.windowHasNull(c, lo, hi) {
			w.Nulls = col.Nulls[lo:hi:hi]
		}
		dst[c] = w
	}
}

// windowHasNull reports whether a block overlapping rows [lo,hi) of
// masked column c holds a NULL. A view assembled without BuildColumnar
// has no block summary and answers true.
func (v *ColumnarView) windowHasNull(c, lo, hi int) bool {
	if v.nullBlocks == nil {
		return true
	}
	for i := lo / nullBlockRows; i*nullBlockRows < hi; i++ {
		if v.nullBlocks[c][i] {
			return true
		}
	}
	return false
}

// Transpose is BuildColumnar for a relation nobody has vetted yet: one
// holding a tuple shorter than its schema has no view and gets
// CheckRowArity's error instead.
func Transpose(r *Relation) (*ColumnarView, error) {
	if err := CheckRowArity(r.Tuples, r.Schema.Arity()); err != nil {
		return nil, err
	}
	return BuildColumnar(r), nil
}

// CheckRowArity returns an error for the first of rows with fewer than
// arity cells. Its text carries no package prefix: the executor, the one
// reader of tuples it did not build, reports it under its own.
func CheckRowArity(rows []schema.Tuple, arity int) error {
	for _, t := range rows {
		if len(t) < arity {
			return fmt.Errorf("row arity %d below attribute index %d", len(t), arity-1)
		}
	}
	return nil
}

// SharedColumnar returns the columnar view of a frozen relation, or nil
// for a private one. The view is built once, on first demand, and lives
// and dies with the relation like any derived value (see Derive);
// concurrent askers wait for the one build. It is shared: callers —
// the vectorized executor's scans and Φ_D's summary alias its lanes —
// must treat it as read-only. A relation holding a tuple shorter than
// its schema has no view; every call returns CheckRowArity's error for
// it.
//
// A relation a snapshot replay left with a lineage (see viewLineage)
// derives its view from the replay's start: the columns the replay did
// not write alias the start's lanes, the others are transposed alone.
// Either way the view is the one Transpose builds, lane for lane, and
// the lineage is dropped with the build.
func (r *Relation) SharedColumnar() (*ColumnarView, error) {
	m := r.frozen.Load()
	if m == nil {
		return nil, nil
	}
	hit, derived := true, false
	m.viewOnce.Do(func() {
		hit = false
		var view *ColumnarView
		if l := r.lineage; l != nil {
			r.lineage = nil
			view, m.viewErr = l.derive(r)
			derived = m.viewErr == nil
		} else {
			view, m.viewErr = Transpose(r)
		}
		m.view.Store(view)
	})
	switch {
	case hit:
		m.stats.viewHits.Add(1)
	case derived:
		// Misses first: a reader of both counters never sees more
		// derived views than builds (see SnapshotCache.ColumnarDerived).
		m.stats.viewMisses.Add(1)
		m.stats.viewDerived.Add(1)
	default:
		m.stats.viewMisses.Add(1)
	}
	return m.view.Load(), m.viewErr
}

// builtView returns the shared view of a frozen relation if it has
// been built, without building it.
func (r *Relation) builtView() *ColumnarView {
	if m := r.frozen.Load(); m != nil {
		return m.view.Load()
	}
	return nil
}

// Relation materializes the view back into row-major tuples (one flat
// value arena for the whole relation). It is the read path of the
// columnar checkpoint codec.
func (v *ColumnarView) Relation() *Relation {
	out := NewRelation(v.Schema)
	out.Tuples = GatherRows(v.Cols, nil, v.Rows)
	return out
}

// GatherTuples boxes the listed rows into row-major tuples backed by one
// flat arena of exactly len(rows) rows, so whoever retains some of the
// tuples pins that arena and nothing of the view.
func (v *ColumnarView) GatherTuples(rows []int) []schema.Tuple {
	return GatherRows(v.Cols, rows, len(rows))
}

// GatherRows boxes the live rows of a column batch (sel nil → rows
// 0..n-1, else the listed rows, in order) into row-major tuples over one
// arena, one column at a time; cols holds one column per tuple cell. It
// is the one boxing of rows out of lanes: a view's (Relation,
// GatherTuples) and the vectorized executor's row sink and join build.
func GatherRows(cols []ColVec, sel []int, n int) []schema.Tuple {
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return nil
	}
	arity := len(cols)
	flat := make([]types.Value, n*arity)
	out := make([]schema.Tuple, n)
	for i := range out {
		out[i] = schema.Tuple(flat[i*arity : (i+1)*arity : (i+1)*arity])
	}
	for c := range cols {
		cols[c].gatherInto(flat[c:], arity, sel, n)
	}
	return out
}

// gatherInto boxes n cells — rows[i], or cell i when rows is nil — into
// dst[i*stride], choosing the lane once for the column.
func (c *ColVec) gatherInto(dst []types.Value, stride int, rows []int, n int) {
	at := func(i int) int {
		if rows == nil {
			return i
		}
		return rows[i]
	}
	switch c.Kind {
	case types.KindInt:
		for i := 0; i < n; i++ {
			dst[i*stride] = types.Int(c.Ints[at(i)])
		}
	case types.KindFloat:
		for i := 0; i < n; i++ {
			dst[i*stride] = types.Float(c.Floats[at(i)])
		}
	case types.KindString:
		for i := 0; i < n; i++ {
			dst[i*stride] = types.String(c.Strs[at(i)])
		}
	default:
		for i := 0; i < n; i++ {
			dst[i*stride] = c.Vals[at(i)]
		}
		return
	}
	if c.Nulls != nil {
		for i := 0; i < n; i++ {
			if c.Nulls[at(i)] {
				dst[i*stride] = types.Null()
			}
		}
	}
}

// MarkUnequal sets neq[k] for every k < len(neq) at which the k-th
// live cell of a and the k-th live cell of b are not types.Value.Equal;
// it never clears a mark. aSel lists a's live cells (ascending row
// numbers), or is nil for cells 0..len(neq)-1, and bSel likewise. These
// are the delta's positional kernels: delta.ComputeColumnar compares
// two whole results with no selection, the executor's pair run
// (exec.RunPairCtx) the live rows of two batches under their selection
// vectors, so both keep one set of Equal rules. Typed lanes compare in
// typed loops, an int lane with a float lane as float64s; a column on
// two different non-numeric lanes, or on the boxed lane, compares
// boxed cells.
func MarkUnequal(neq []bool, a *ColVec, aSel []int, b *ColVec, bSel []int) {
	switch {
	case a.Kind == types.KindInt && b.Kind == types.KindInt:
		markLane(neq, a.Ints, b.Ints, aSel, bSel, a.Nulls, b.Nulls)
	case a.Kind == types.KindFloat && b.Kind == types.KindFloat:
		markLane(neq, a.Floats, b.Floats, aSel, bSel, a.Nulls, b.Nulls)
	case a.Kind == types.KindString && b.Kind == types.KindString:
		markLane(neq, a.Strs, b.Strs, aSel, bSel, a.Nulls, b.Nulls)
	case a.Kind == types.KindInt && b.Kind == types.KindFloat:
		markIntFloat(neq, a.Ints, b.Floats, aSel, bSel, a.Nulls, b.Nulls)
	case a.Kind == types.KindFloat && b.Kind == types.KindInt:
		markIntFloat(neq, b.Ints, a.Floats, bSel, aSel, b.Nulls, a.Nulls)
	default:
		for k := range neq {
			if !neq[k] && !a.Value(selRow(aSel, k)).Equal(b.Value(selRow(bSel, k))) {
				neq[k] = true
			}
		}
	}
}

// selRow is the row of the k-th live cell under sel.
func selRow(sel []int, k int) int {
	if sel == nil {
		return k
	}
	return sel[k]
}

// markLane compares two typed lanes of one kind. != on T is Value.Equal
// for that kind: exact on ints and strings, IEEE on floats. The two
// shapes without NULL masks, no selection on either side and a
// selection on both, run without a per-cell branch.
func markLane[T comparable](neq []bool, x, y []T, xs, ys []int, xNull, yNull []bool) {
	switch {
	case xNull != nil || yNull != nil:
	case xs == nil && ys == nil:
		x, y = x[:len(neq)], y[:len(neq)]
		for i := range neq {
			if x[i] != y[i] {
				neq[i] = true
			}
		}
		return
	case xs != nil && ys != nil:
		xs, ys = xs[:len(neq)], ys[:len(neq)]
		for k := range neq {
			if x[xs[k]] != y[ys[k]] {
				neq[k] = true
			}
		}
		return
	}
	for k := range neq {
		i, j := selRow(xs, k), selRow(ys, k)
		nx, ny := xNull != nil && xNull[i], yNull != nil && yNull[j]
		if nx != ny || (!nx && x[i] != y[j]) {
			neq[k] = true
		}
	}
}

// markIntFloat compares an int lane with a float lane the way
// Value.Equal compares an int with a float: as float64s.
func markIntFloat(neq []bool, x []int64, y []float64, xs, ys []int, xNull, yNull []bool) {
	for k := range neq {
		i, j := selRow(xs, k), selRow(ys, k)
		nx, ny := xNull != nil && xNull[i], yNull != nil && yNull[j]
		if nx != ny || (!nx && float64(x[i]) != y[j]) {
			neq[k] = true
		}
	}
}
