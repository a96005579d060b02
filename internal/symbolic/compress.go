package symbolic

import (
	"fmt"
	"sort"

	"github.com/mahif/mahif/internal/expr"
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

	groups := partition(rel, gidx, opts.Groups)
	var disjuncts []expr.Expr
	for _, rows := range groups {
		if len(rows) == 0 {
			continue
		}
		var conj []expr.Expr
		for ci, col := range rel.Schema.Columns {
			c := summarizeColumn(rel, rows, ci, col.Type, opts.MaxDistinct)
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

// partition splits row indices into at most n groups on column gidx:
// numeric columns by equal-frequency quantiles, others by value hash.
func partition(rel *storage.Relation, gidx, n int) [][]int {
	keys := make([]float64, rel.Len())
	numeric := true
	for i, t := range rel.Tuples {
		if !t[gidx].IsNumeric() {
			numeric = false
			break
		}
		keys[i] = t[gidx].AsFloat()
	}
	if !numeric {
		buckets := map[string][]int{}
		for i, t := range rel.Tuples {
			k := t[gidx].String()
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
	idx := make([]int, rel.Len())
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

// summarizeColumn builds the range / IN constraint for one attribute
// within one group, or nil when the attribute cannot be constrained
// (NULLs present, too many distinct strings).
func summarizeColumn(rel *storage.Relation, rows []int, ci int, kind types.Kind, maxDistinct int) expr.Expr {
	v := expr.Variable(BaseVar(rel.Schema.Columns[ci].Name))
	switch kind {
	case types.KindInt, types.KindFloat:
		first := true
		var lo, hi float64
		for _, r := range rows {
			val := rel.Tuples[r][ci]
			if !val.IsNumeric() {
				return nil
			}
			f := val.AsFloat()
			if first {
				lo, hi, first = f, f, false
				continue
			}
			if f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		if first {
			return nil
		}
		loC, hiC := numConst(kind, lo), numConst(kind, hi)
		if lo == hi {
			return expr.Eq(v, loC)
		}
		return expr.AndOf(expr.Ge(v, loC), expr.Le(v, hiC))
	case types.KindString, types.KindBool:
		// At most maxDistinct values survive, so a linear scan over the
		// ones seen so far compares typed values without rendering or
		// hashing any row, and a column with more stops at the first
		// value past the cap.
		distinct := make([]types.Value, 0, maxDistinct)
	scan:
		for _, r := range rows {
			val := rel.Tuples[r][ci]
			if val.Kind() != kind {
				return nil
			}
			for _, d := range distinct {
				if d.Equal(val) {
					continue scan
				}
			}
			if len(distinct) == maxDistinct {
				return nil
			}
			distinct = append(distinct, val)
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

func numConst(kind types.Kind, f float64) expr.Expr {
	if kind == types.KindInt && f == float64(int64(f)) {
		return expr.IntConst(int64(f))
	}
	return expr.FloatConst(f)
}
