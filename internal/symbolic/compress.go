package symbolic

import (
	"fmt"
	"sort"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// CompressOptions controls database compression (§8.3.1).
type CompressOptions struct {
	// GroupBy selects the grouping attribute; empty picks the first
	// column.
	GroupBy string
	// Groups is the number of groups (default 2, as in Example 7).
	Groups int
	// MaxDistinct caps the size of IN-style constraints emitted for
	// string attributes within a group; attributes with more distinct
	// values stay unconstrained.
	MaxDistinct int
}

func (o CompressOptions) withDefaults(rel *storage.Relation) CompressOptions {
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.MaxDistinct <= 0 {
		o.MaxDistinct = 8
	}
	if o.GroupBy == "" && rel.Schema.Arity() > 0 {
		o.GroupBy = rel.Schema.Columns[0].Name
	}
	return o
}

// Compress lossily summarizes a relation into the constraint Φ_D over
// the base variables of a single-tuple VC-table: rows are partitioned
// into groups on one attribute, and each group contributes a
// conjunction of per-attribute range constraints (numeric) or IN-sets
// (strings/bools). The disjunction over groups over-approximates the
// relation: every tuple of rel satisfies Φ_D.
//
// An empty relation compresses to false (no possible base tuple),
// making every candidate slice trivially valid for base data.
//
// The summary reads the relation's typed columnar lanes, not its
// tuples: a frozen relation's shared view (storage.Relation.
// SharedColumnar), which the vectorized executor then scans too, or a
// private transposition of an unfrozen one. A relation holding a tuple
// shorter than its schema has no view and gets its error.
//
// Φ_D is a pure function of the relation's contents and the options, so
// on a frozen relation (one a storage.SnapshotCache published) it is
// computed once per option set and remembered with the snapshot: the
// data-sized scan is paid per snapshot, not per what-if. The returned
// expression may be shared; treat it as read-only.
func Compress(rel *storage.Relation, opts CompressOptions) (expr.Expr, error) {
	if rel.Len() == 0 {
		return expr.False, nil
	}
	opts = opts.withDefaults(rel)
	phi, err := rel.Derive(opts, func() (any, error) { return summarize(rel, opts) })
	if err != nil {
		return nil, err
	}
	return phi.(expr.Expr), nil
}

// summarize is the data-sized pass behind Compress; opts carry their
// defaults.
func summarize(rel *storage.Relation, opts CompressOptions) (expr.Expr, error) {
	gidx := rel.Schema.ColIndex(opts.GroupBy)
	if gidx < 0 {
		return nil, fmt.Errorf("symbolic: group-by attribute %q not in %s", opts.GroupBy, rel.Schema)
	}
	view, err := rel.SharedColumnar()
	if err == nil && view == nil {
		view, err = storage.Transpose(rel)
	}
	if err != nil {
		return nil, fmt.Errorf("symbolic: %w", err)
	}

	groups := partition(view, gidx, opts.Groups)
	var disjuncts []expr.Expr
	for _, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		var conj []expr.Expr
		for ci, col := range rel.Schema.Columns {
			c := summarizeColumn(&view.Cols[ci], rows, col, opts.MaxDistinct)
			if c != nil {
				conj = append(conj, c)
			}
		}
		disjuncts = append(disjuncts, expr.AndOf(conj...))
	}
	return expr.Simplify(expr.OrOf(disjuncts...)), nil
}

// byKey sorts row indices by a float key held beside them, so the
// comparison reads two floats instead of unboxing two tuple cells.
type byKey struct {
	keys []float64
	rows []int
}

func (s byKey) Len() int           { return len(s.rows) }
func (s byKey) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s byKey) Swap(a, b int) {
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
	s.rows[a], s.rows[b] = s.rows[b], s.rows[a]
}

// numericCell returns cell r of col as a float, and false when it is not
// numeric (NULL included).
func numericCell(col *storage.ColVec, r int) (float64, bool) {
	switch col.Kind {
	case types.KindInt:
		return float64(col.Ints[r]), col.Nulls == nil || !col.Nulls[r]
	case types.KindFloat:
		return col.Floats[r], col.Nulls == nil || !col.Nulls[r]
	case types.KindString:
		return 0, false
	}
	if v := col.Value(r); v.IsNumeric() {
		return v.AsFloat(), true
	}
	return 0, false
}

// numericRange returns the least and greatest cell of col at rows, as
// floats, and false when rows is empty or a cell is not numeric (NULL
// included). A typed lane without a mask takes a loop of its own.
func numericRange(col *storage.ColVec, rows []int) (lo, hi float64, ok bool) {
	if len(rows) == 0 {
		return 0, 0, false
	}
	switch {
	case col.Nulls == nil && col.Kind == types.KindFloat:
		lo, hi = laneRange(col.Floats, rows)
		return lo, hi, true
	case col.Nulls == nil && col.Kind == types.KindInt:
		lo, hi = laneRange(col.Ints, rows)
		return lo, hi, true
	}
	for i, r := range rows {
		f, ok := numericCell(col, r)
		if !ok {
			return 0, 0, false
		}
		if i == 0 {
			lo, hi = f, f
			continue
		}
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi, true
}

// laneRange is numericRange over a typed lane without NULLs; rows is
// not empty.
func laneRange[T int64 | float64](lane []T, rows []int) (lo, hi float64) {
	lo, hi = float64(lane[rows[0]]), float64(lane[rows[0]])
	for _, r := range rows[1:] {
		f := float64(lane[r])
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}

// numericKeys returns the n cells of col as floats, and false when one
// is not numeric (NULL included).
func numericKeys(col *storage.ColVec, n int) ([]float64, bool) {
	keys := make([]float64, n)
	for i := range keys {
		var ok bool
		if keys[i], ok = numericCell(col, i); !ok {
			return nil, false
		}
	}
	return keys, true
}

// partition splits the view's row indices into at most n groups on
// column gidx: numeric columns by equal-frequency quantiles, others by
// value hash.
func partition(view *storage.ColumnarView, gidx, n int) [][]int {
	col := &view.Cols[gidx]
	keys, numeric := numericKeys(col, view.Rows)
	if !numeric {
		buckets := map[string][]int{}
		for i := 0; i < view.Rows; i++ {
			k := col.Value(i).String()
			buckets[k] = append(buckets[k], i)
		}
		names := make([]string, 0, len(buckets))
		for k := range buckets {
			names = append(names, k)
		}
		sort.Strings(names)
		out := make([][]int, min(n, len(names)))
		for i, k := range names {
			g := i % len(out)
			out[g] = append(out[g], buckets[k]...)
		}
		return out
	}
	idx := make([]int, view.Rows)
	for i := range idx {
		idx[i] = i
	}
	// Which of several rows with one key lands in which group decides
	// the other columns' ranges, so the order among ties is part of Φ_D.
	// sort.Sort makes the same comparisons and swaps as the sort.Slice
	// over tuple cells it replaced and therefore leaves ties where that
	// left them.
	sort.Sort(byKey{keys: keys, rows: idx})
	if n > len(idx) {
		n = len(idx)
	}
	out := make([][]int, n)
	per := (len(idx) + n - 1) / n
	for g := range out {
		out[g] = idx[min(g*per, len(idx)):min((g+1)*per, len(idx))]
	}
	return out
}

// summarizeColumn builds the range / IN constraint for one attribute,
// lane col of the view, within one group, or nil when the attribute
// cannot be constrained (NULLs present, too many distinct strings).
func summarizeColumn(col *storage.ColVec, rows []int, attr schema.Column, maxDistinct int) expr.Expr {
	v := expr.Variable(BaseVar(attr.Name))
	switch kind := attr.Type; kind {
	case types.KindInt, types.KindFloat:
		lo, hi, ok := numericRange(col, rows)
		if !ok {
			return nil
		}
		loC, hiC := numConst(kind, lo), numConst(kind, hi)
		if lo == hi {
			return expr.Eq(v, loC)
		}
		return expr.AndOf(expr.Ge(v, loC), expr.Le(v, hiC))
	case types.KindString, types.KindBool:
		distinct, ok := distinctValues(col, rows, kind, maxDistinct)
		if !ok {
			return nil
		}
		// Alternatives go in the order of their SQL renderings.
		sort.Slice(distinct, func(a, b int) bool { return distinct[a].String() < distinct[b].String() })
		alts := make([]expr.Expr, len(distinct))
		for i, d := range distinct {
			alts[i] = expr.Eq(v, expr.Constant(d))
		}
		return expr.OrOf(alts...)
	}
	return nil
}

// distinctValues returns the distinct cells of col at rows in the order
// they first occur, and false when a cell is not of kind (NULL
// included) or there are more than maxDistinct. At most maxDistinct
// values survive, so a linear scan over the ones seen so far compares
// typed values without rendering or hashing any row — a string lane's
// strings directly — and a column with more stops at the first value
// past the cap.
func distinctValues(col *storage.ColVec, rows []int, kind types.Kind, maxDistinct int) ([]types.Value, bool) {
	distinct := make([]types.Value, 0, maxDistinct)
	if col.Kind == types.KindString && kind == types.KindString {
		seen := make([]string, 0, maxDistinct)
	strs:
		for _, r := range rows {
			if col.Nulls != nil && col.Nulls[r] {
				return nil, false
			}
			str := col.Strs[r]
			for _, d := range seen {
				if d == str {
					continue strs
				}
			}
			if len(seen) == maxDistinct {
				return nil, false
			}
			seen = append(seen, str)
		}
		for _, str := range seen {
			distinct = append(distinct, types.String(str))
		}
		return distinct, true
	}
scan:
	for _, r := range rows {
		val := col.Value(r)
		if val.Kind() != kind {
			return nil, false
		}
		for _, d := range distinct {
			if d.Equal(val) {
				continue scan
			}
		}
		if len(distinct) == maxDistinct {
			return nil, false
		}
		distinct = append(distinct, val)
	}
	return distinct, true
}

func numConst(kind types.Kind, f float64) expr.Expr {
	if kind == types.KindInt && f == float64(int64(f)) {
		return expr.IntConst(int64(f))
	}
	return expr.FloatConst(f)
}
