package delta

import (
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// Work counts what one ComputeColumnar call did, in rows: Hashed over
// Compared is the share of a what-if's result that did not cancel at
// its position, and Hashed − Boxed the rows of it that cancelled across
// positions.
type Work struct {
	// Compared is the number of positions the two sides were compared at,
	// lane-wise and without boxing: the shorter side's row count.
	Compared int
	// Hashed is the residual, both sides together: the rows that did not
	// cancel at their position and were matched by row hash, lane-wise.
	Hashed int
	// Boxed is the number of rows gathered into tuples: the delta,
	// |Minus| + |Plus|.
	Boxed int
}

// ComputeColumnar is Compute over two results in columnar form, with
// the same Minus and Plus in the same order. Positions cancel in typed
// loops over the lanes (storage.MarkUnequal), under exactly
// types.Value.Equal's rules (NULL equals NULL, 1 equals 1.0 across an
// int and a float lane, floats by ==, so NaN differs from itself and
// the two zeros are equal); only a column whose two sides sit on
// different non-numeric lanes, or on the boxed lane, compares boxed
// cells. Nothing assumes that column c is on the same lane on both
// sides. The rows that survive are matched across positions on the
// lanes too (see matchResidual), and only Minus and Plus are gathered
// into tuples — one arena a side, of exactly their size, so a retained
// Result pins its own rows and neither view.
//
// A what-if whose two sides are one scan of a frozen relation does not
// come here: its pair run (exec.RunPairCtx) cancels the positions batch
// by batch while both sides run, with the same kernels, and
// ComputeResidual finishes from the rows it kept. ComputeColumnar diffs
// every other pair of results, and is that path's oracle.
func ComputeColumnar(oldV, newV *storage.ColumnarView) (*Result, Work) {
	return compute(oldV, newV, viewHasher(oldV), nil)
}

// ComputeHashed is ComputeColumnar over an old side hashed once for
// many new sides: the same Minus and Plus in the same order and the same
// Work, but only newV's residual rows are hashed. oldRows is as in
// ComputeRows: when not nil, Minus shares its tuples.
func ComputeHashed(oldV *HashedView, newV *storage.ColumnarView, oldRows []schema.Tuple) (*Result, Work) {
	return compute(oldV.ColumnarView, newV, oldV.rows, oldRows)
}

// ComputeResidual is ComputeColumnar after its positions have been
// cancelled elsewhere: oldV and newV hold, in position order, the rows
// of each side that were not Equal to the other side's row at their
// position, and compared is how many positions were compared. When the
// rows left out are exactly the positions that cancel, Minus, Plus,
// their order and Work are those ComputeColumnar returns for the two
// whole results: the residual is matched, gathered and sorted the same
// way, row for row.
func ComputeResidual(oldV, newV *storage.ColumnarView, compared int) (*Result, Work) {
	out, work := finish(oldV, newV, allRows(oldV.Rows), allRows(newV.Rows), viewHasher(oldV), viewHasher(newV), nil)
	work.Compared, work.Hashed = compared, oldV.Rows+newV.Rows
	return out, work
}

// compute is ComputeColumnar with the old side's row hashes from
// oldHash and, when oldRows is not nil, its Minus tuples from there.
func compute(oldV, newV *storage.ColumnarView, oldHash hasher, oldRows []schema.Tuple) (*Result, Work) {
	n := min(oldV.Rows, newV.Rows)
	neq := make([]bool, n)
	if len(oldV.Cols) != len(newV.Cols) {
		// Tuples of different arity are never Equal.
		for i := range neq {
			neq[i] = true
		}
	} else {
		for c := range oldV.Cols {
			storage.MarkUnequal(neq, &oldV.Cols[c], nil, &newV.Cols[c], nil)
		}
	}
	oldIdx, newIdx := residualRows(neq, oldV.Rows, newV.Rows)
	out, work := finish(oldV, newV, oldIdx, newIdx, oldHash, viewHasher(newV), oldRows)
	work.Compared, work.Hashed = n, len(oldIdx)+len(newIdx)
	return out, work
}

// finish is the step after positional cancellation: the residual rows
// oldIdx of oldV and newIdx of newV, hashed by oldHash and newHash,
// are matched across positions into Minus and Plus, which are gathered
// (Minus from oldRows when that is not nil, see minusTuples) and
// sorted. Its Work counts only the rows boxed.
func finish(oldV, newV *storage.ColumnarView, oldIdx, newIdx []int, oldHash, newHash hasher, oldRows []schema.Tuple) (*Result, Work) {
	out := &Result{Relation: oldV.Schema.Relation, Schema: oldV.Schema}
	m := matchResidual(oldV, newV, oldIdx, newIdx, oldHash, newHash)
	out.Minus = minusTuples(oldV, m.minus, oldRows)
	out.Plus = newV.GatherTuples(m.plus)
	sortTuples(out.Minus)
	sortTuples(out.Plus)
	return out, Work{Boxed: out.Size()}
}

// allRows lists rows 0..n-1.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// minusTuples boxes rows of oldV, or takes them from oldRows, oldV's
// rows already boxed, when that is not nil.
func minusTuples(oldV *storage.ColumnarView, rows []int, oldRows []schema.Tuple) []schema.Tuple {
	if oldRows == nil {
		return oldV.GatherTuples(rows)
	}
	if len(rows) == 0 {
		return nil
	}
	out := make([]schema.Tuple, len(rows))
	for i, r := range rows {
		out[i] = oldRows[r]
	}
	return out
}

// HashedView is a columnar view with every row's hash (schema.Tuple.Hash)
// and which rows are not Equal to themselves, computed once for a
// caller that diffs many sets of its rows (ComputeRows).
type HashedView struct {
	*storage.ColumnarView
	hashes []uint64
	nan    []bool // nil when every row is Equal to itself
}

// NewHashedView hashes every row of v, which it retains.
func NewHashedView(v *storage.ColumnarView) *HashedView {
	hs, nan := hashRows(v, allRows(v.Rows))
	return &HashedView{ColumnarView: v, hashes: hs, nan: nan}
}

// hasher returns the hashes of rows of the view it was made for, and
// which of them are not Equal to themselves (nil when none is).
type hasher func(rows []int) ([]uint64, []bool)

func viewHasher(v *storage.ColumnarView) hasher {
	return func(rows []int) ([]uint64, []bool) { return hashRows(v, rows) }
}

// rows looks up the hashes of rows instead of computing them.
func (v *HashedView) rows(rows []int) ([]uint64, []bool) {
	hs := make([]uint64, len(rows))
	var nan []bool
	for i, r := range rows {
		hs[i] = v.hashes[r]
		if v.nan != nil && v.nan[r] {
			nan = markRow(nan, i, len(rows))
		}
	}
	return hs, nan
}

// ComputeRows is ComputeColumnar's residual step alone: rows oldIdx of
// oldV and newIdx of newV, which the caller has already found not to
// cancel at their positions, are matched across positions — a bag
// difference under Value.Equal, with the hashes the views carry — into
// Minus and Plus, in ComputeColumnar's order for residuals listed in
// row order. oldRows, when not nil, holds oldV's rows already boxed,
// shared read-only: Minus takes its tuples from there instead of
// boxing them. It hashes nothing: Work counts only the delta's rows.
func ComputeRows(oldV, newV *HashedView, oldIdx, newIdx []int, oldRows []schema.Tuple) (*Result, Work) {
	return finish(oldV.ColumnarView, newV.ColumnarView, oldIdx, newIdx, oldV.rows, newV.rows, oldRows)
}

// residualMatch is the residual step of ComputeColumnar: Result.residual
// on row numbers instead of tuples. The new side's residual rows are
// grouped into classes of Equal rows in a chained hash table — a class
// is its first row (rep) and how many rows of the new side it still
// holds (count) — and each old row takes one from the first live class
// of its chain it is Equal to, or is Minus. What the classes still hold
// is Plus, the first rows of each class in new-side order. Per row that
// is one row hash and about one lane-wise Equal, however many rows a
// class has.
//
// It reproduces TupleIndex exactly, also where Equal is not transitive
// (ints past 2^53 against floats): classes of one row hash sit in their
// chain in creation order, a class that runs out is replaced by the
// last live class of its hash (TupleIndex's swap-delete), and a new
// row whose class shares its hash with another drains by a lookup, as
// Compute's does, not by its own class's count. A row not Equal to
// itself (a NaN cell) matches nothing and is never indexed.
type residualMatch struct {
	newV   *storage.ColumnarView
	newIdx []int

	mask    uint64
	head    []int32 // by hash & mask: the chain's first class, 0 for none
	classes []class // from 1; classes[0] is unused

	minus, plus []int // view rows, in residual order
	equals      int   // row comparisons made (a test's linearity probe)
}

// class is one class of Equal rows of the new side's residual.
type class struct {
	hash   uint64
	next   int32 // the next class of the chain, 0 at its end
	rep    int32 // the first row, as a position in newIdx
	count  int32 // rows the class still holds
	shared bool  // another class has the same hash
}

// matchResidual splits the residual rows oldIdx of oldV and newIdx of
// newV, whose hashes oldHash and newHash give, into Minus and Plus.
func matchResidual(oldV, newV *storage.ColumnarView, oldIdx, newIdx []int, oldHash, newHash hasher) *residualMatch {
	m := &residualMatch{newV: newV, newIdx: newIdx}
	if len(oldIdx) == 0 || len(newIdx) == 0 {
		m.minus, m.plus = oldIdx, newIdx
		return m
	}
	newHs, newNaN := newHash(newIdx)
	cls := m.index(newHs, newNaN)
	oldHs, oldNaN := oldHash(oldIdx)
	out := make([]int, 0, len(oldIdx)+len(newIdx))
	for j, r := range oldIdx {
		if (oldNaN == nil || !oldNaN[j]) && m.take(oldHs[j], oldV, r) {
			continue
		}
		out = append(out, r)
	}
	m.minus, out = out[:len(out):len(out)], out[len(out):]
	for i, r := range newIdx {
		k := cls[i]
		switch {
		case k == 0: // not Equal to itself
		case !m.classes[k].shared:
			if m.classes[k].count == 0 {
				continue
			}
			m.classes[k].count--
		case !m.take(newHs[i], newV, r):
			continue
		}
		out = append(out, r)
	}
	m.plus = out
	return m
}

// index builds the classes of the new side's residual rows, whose row
// hashes are hs, and returns each row's class (0 for a row not Equal to
// itself).
func (m *residualMatch) index(hs []uint64, nan []bool) []int32 {
	size := 1
	for size < len(hs) {
		size <<= 1
	}
	m.mask = uint64(size - 1)
	m.head = make([]int32, size)
	m.classes = make([]class, 1, len(hs)+1)
	cls := make([]int32, len(hs))
rows:
	for i, h := range hs {
		if nan != nil && nan[i] {
			continue
		}
		r := m.newIdx[i]
		link, shared := &m.head[h&m.mask], false
		for k := *link; k != 0; k = *link {
			c := &m.classes[k]
			if c.hash == h {
				if m.equal(c, m.newV, r) {
					c.count++
					cls[i] = k
					continue rows
				}
				shared = true
			}
			link = &c.next
		}
		k := int32(len(m.classes))
		*link = k
		m.classes = append(m.classes, class{hash: h, rep: int32(i), count: 1, shared: shared})
		if shared {
			for o := m.head[h&m.mask]; o != k; o = m.classes[o].next {
				if m.classes[o].hash == h {
					m.classes[o].shared = true
				}
			}
		}
		cls[i] = k
	}
	return cls
}

// take removes one row Equal to row r of v, whose row hash is h, from
// the first live class of its chain that holds such rows, and reports
// whether there was one (TupleIndex.Remove).
func (m *residualMatch) take(h uint64, v *storage.ColumnarView, r int) bool {
	for k := m.head[h&m.mask]; k != 0; k = m.classes[k].next {
		c := &m.classes[k]
		if c.count == 0 || c.hash != h || !m.equal(c, v, r) {
			continue
		}
		if c.count--; c.count == 0 && c.shared {
			// Swap-delete: the last live class of this hash takes the
			// emptied one's place in the chain.
			last := c
			for o := c.next; o != 0; o = m.classes[o].next {
				if l := &m.classes[o]; l.count > 0 && l.hash == h {
					last = l
				}
			}
			c.rep, c.count, last.count = last.rep, last.count, 0
		}
		return true
	}
	return false
}

// equal reports whether class c's first row equals row r of v.
func (m *residualMatch) equal(c *class, v *storage.ColumnarView, r int) bool {
	m.equals++
	a, ra := m.newV, m.newIdx[c.rep]
	if len(a.Cols) != len(v.Cols) {
		return false
	}
	for c := range a.Cols {
		if !cellEqual(&a.Cols[c], ra, &v.Cols[c], r) {
			return false
		}
	}
	return true
}

// hashRows returns the row hashes (schema.Tuple.Hash) of rows of v,
// folded lane-wise, and which of them are not Equal to themselves — nil
// when none is.
func hashRows(v *storage.ColumnarView, rows []int) (hs []uint64, nan []bool) {
	hs = make([]uint64, len(rows))
	for i := range hs {
		hs[i] = schema.HashSeed
	}
	for c := range v.Cols {
		col := &v.Cols[c]
		col.FoldHashRows(hs, rows)
		switch col.Kind {
		case types.KindFloat:
			for i, r := range rows {
				if f := col.Floats[r]; f != f && (col.Nulls == nil || !col.Nulls[r]) {
					nan = markRow(nan, i, len(rows))
				}
			}
		case types.KindNull:
			for i, r := range rows {
				if x := col.Vals[r]; !x.Equal(x) {
					nan = markRow(nan, i, len(rows))
				}
			}
		}
	}
	return hs, nan
}

// markRow sets marks[i], allocating the n marks on first use.
func markRow(marks []bool, i, n int) []bool {
	if marks == nil {
		marks = make([]bool, n)
	}
	marks[i] = true
	return marks
}

// cellEqual is types.Value.Equal on cell i of a and cell j of b, typed
// where the two lanes allow.
func cellEqual(a *storage.ColVec, i int, b *storage.ColVec, j int) bool {
	if a.Kind == b.Kind && a.Kind != types.KindNull {
		na, nb := a.Nulls != nil && a.Nulls[i], b.Nulls != nil && b.Nulls[j]
		if na || nb {
			return na == nb
		}
		switch a.Kind {
		case types.KindInt:
			return a.Ints[i] == b.Ints[j]
		case types.KindFloat:
			return a.Floats[i] == b.Floats[j]
		default:
			return a.Strs[i] == b.Strs[j]
		}
	}
	return a.Value(i).Equal(b.Value(j))
}
