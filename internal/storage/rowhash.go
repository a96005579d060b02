package storage

import (
	"cmp"
	"math"
	"slices"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/types"
)

// RowHashIndex finds a relation's rows equal to given tuples without
// touching its row store: every row's typed tuple hash (Tuple.Hash),
// computed lane-wise over the relation's columnar view, sorted with its
// row number — 16 bytes a row. A probe binary-searches the hash and
// confirms each candidate row cell by cell with Value.Equal, the
// identity TupleIndex and the delta use.
type RowHashIndex struct {
	view *ColumnarView
	ents []rowHash // by hash, then row
}

type rowHash struct {
	h   uint64
	row int
}

// NewRowHashIndex hashes and sorts the rows of v, which it retains.
func NewRowHashIndex(v *ColumnarView) *RowHashIndex {
	hs := make([]uint64, v.Rows)
	for i := range hs {
		hs[i] = schema.HashSeed
	}
	for c := range v.Cols {
		v.Cols[c].FoldHash(hs, nil, v.Rows)
	}
	ents := make([]rowHash, v.Rows)
	for r, h := range hs {
		ents[r] = rowHash{h: h, row: r}
	}
	slices.SortFunc(ents, func(a, b rowHash) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	return &RowHashIndex{view: v, ents: ents}
}

// Match pairs the bag ts with the rows a bag difference R − ts removes
// (TupleIndex.Remove's rule): within each class of Equal tuples the
// members of ts, in order, take the class's rows in row order. rows[i]
// is the row ts[i] took, -1 when its class ran out of rows; missing
// counts those. identical reports whether every member took a row that
// is the same tuple cell for cell, kind for kind and bit for bit — when
// it is not (1 against 1.0), the removed rows differ from ts in a way
// Equal hides, and only the rows themselves (Gather) are the removed
// bag.
func (x *RowHashIndex) Match(ts []schema.Tuple) (rows []int, missing int, identical bool) {
	rows = make([]int, len(ts))
	taken := make([]uint64, (len(x.ents)+63)/64) // by position in ents
	identical = true
	for i, t := range ts {
		rows[i] = -1
		h := t.Hash()
		k, _ := slices.BinarySearchFunc(x.ents, h, func(e rowHash, h uint64) int { return cmp.Compare(e.h, h) })
		for ; k < len(x.ents) && x.ents[k].h == h; k++ {
			if taken[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			if eq, same := x.compare(x.ents[k].row, t); eq {
				taken[k/64] |= 1 << (k % 64)
				rows[i] = x.ents[k].row
				identical = identical && same
				break
			}
		}
		if rows[i] < 0 {
			missing++
		}
	}
	return rows, missing, identical
}

// compare reports whether row r equals t (Value.Equal per cell) and
// whether it is the same tuple (same kinds, same bits).
func (x *RowHashIndex) compare(r int, t schema.Tuple) (equal, same bool) {
	if len(t) != len(x.view.Cols) {
		return false, false
	}
	same = true
	for c := range x.view.Cols {
		eq, id := x.view.Cols[c].matchCell(r, t[c])
		if !eq {
			return false, false
		}
		same = same && id
	}
	return true, same
}

// matchCell reports whether cell r equals v (Value.Equal) and whether it
// is v itself: the same kind and, for a float, the same bits.
func (c *ColVec) matchCell(r int, v types.Value) (equal, same bool) {
	if c.Kind == types.KindNull {
		u := c.Vals[r]
		eq := u.Equal(v)
		return eq, eq && u.Kind() == v.Kind() && (u.Kind() != types.KindFloat || math.Float64bits(u.AsFloat()) == math.Float64bits(v.AsFloat()))
	}
	if c.Nulls != nil && c.Nulls[r] {
		return v.IsNull(), v.IsNull()
	}
	switch c.Kind {
	case types.KindInt:
		switch v.Kind() {
		case types.KindInt:
			eq := c.Ints[r] == v.AsInt()
			return eq, eq
		case types.KindFloat:
			return float64(c.Ints[r]) == v.AsFloat(), false
		}
	case types.KindFloat:
		switch v.Kind() {
		case types.KindFloat:
			f := v.AsFloat()
			eq := c.Floats[r] == f
			return eq, eq && math.Float64bits(c.Floats[r]) == math.Float64bits(f)
		case types.KindInt:
			return c.Floats[r] == float64(v.AsInt()), false
		}
	case types.KindString:
		if v.Kind() == types.KindString {
			eq := c.Strs[r] == v.AsString()
			return eq, eq
		}
	}
	return false, false
}

// Gather boxes the listed rows into tuples (ColumnarView.GatherTuples).
func (x *RowHashIndex) Gather(rows []int) []schema.Tuple { return x.view.GatherTuples(rows) }

// rowHashKey derives a relation's RowHashIndex.
type rowHashKey struct{}

func (rowHashKey) ReportKey() {}

// RowHashes returns the relation's RowHashIndex over its columnar view:
// built once per frozen relation (over SharedColumnar) and remembered
// like any derived value (Derive), built afresh over a transpose for a
// private one. A relation with a tuple shorter than its schema has none
// (CheckRowArity's error).
func (r *Relation) RowHashes() (*RowHashIndex, error) {
	v, err := r.Derive(rowHashKey{}, func() (any, error) {
		view, err := r.SharedColumnar()
		if view == nil && err == nil {
			view, err = Transpose(r)
		}
		if err != nil {
			return nil, err
		}
		return NewRowHashIndex(view), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*RowHashIndex), nil
}
