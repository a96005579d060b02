// Package delta computes database deltas (§3): the annotated symmetric
// difference Δ(D, D') containing tuples exclusive to D annotated "−"
// and tuples exclusive to D' annotated "+". The computation is
// multiset-aware, which coincides with the paper's set semantics on
// duplicate-free relations and generalizes it safely otherwise.
package delta

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
)

// Result is the delta for one relation.
type Result struct {
	Relation string
	Schema   *schema.Schema
	// Minus are tuples present in the old state (H(D)) but not the new
	// (H[M](D)); Plus the converse. Multiplicity differences are
	// reflected by repeated tuples.
	Minus []schema.Tuple
	Plus  []schema.Tuple
}

// Compute returns Δ(oldRel, newRel) with Minus and Plus in the canonical
// typed order of schema.Tuple.Compare.
//
// Rows at the same position that are Equal cancel first. Cancelling any
// equal pair is sound for bags, and it pays off because reenactment of
// an update history maps row i to row i on both sides and the executors
// preserve scan order, so what is left is about the size of the delta.
// Only that residual is hashed (see residual). Two results that are not
// aligned (a row deleted on one side only shifts everything after it)
// leave a large residual and cost what a whole-relation multiset diff
// costs.
//
// This is the delta over rows: Alg. 1, the history executor and the
// bench's staged replay have rows and call it. A what-if never has its
// results as rows. When both sides are one scan of a frozen relation,
// the executor's pair run (exec.RunPairCtx) cancels the positions batch
// by batch as the two sides run and keeps only the rows that differ,
// which ComputeResidual finishes; any other pair of results goes
// through ComputeColumnar, which cancels the same positions and matches
// the same residual on the lanes. Compute is their test oracle.
func Compute(oldRel, newRel *storage.Relation) *Result {
	out := &Result{Relation: oldRel.Schema.Relation, Schema: oldRel.Schema}
	olds, news := oldRel.Tuples, newRel.Tuples
	n := min(len(olds), len(news))
	neq := make([]bool, n)
	for i := range neq {
		neq[i] = !olds[i].Equal(news[i])
	}
	oldIdx, newIdx := residualRows(neq, len(olds), len(news))
	restOld := make([]schema.Tuple, len(oldIdx))
	for i, r := range oldIdx {
		restOld[i] = olds[r]
	}
	restNew := make([]schema.Tuple, len(newIdx))
	for i, r := range newIdx {
		restNew[i] = news[r]
	}
	out.residual(restOld, restNew)
	return out
}

// residualRows lists, for each side, the rows positional cancellation
// left over: the positions marked unequal, the same on both sides, then
// the rows past the shorter side's end. Marking first lets everything
// downstream be allocated once, at its final size.
func residualRows(neq []bool, oldRows, newRows int) (oldIdx, newIdx []int) {
	k := 0
	for _, d := range neq {
		if d {
			k++
		}
	}
	n := len(neq)
	idx := make([]int, 0, k+max(oldRows, newRows)-n)
	for i, d := range neq {
		if d {
			idx = append(idx, i)
		}
	}
	// At most one side is longer, so at most one of these appends, into
	// the capacity reserved for it.
	oldIdx, newIdx = idx, idx
	for i := n; i < oldRows; i++ {
		oldIdx = append(oldIdx, i)
	}
	for i := n; i < newRows; i++ {
		newIdx = append(newIdx, i)
	}
	return oldIdx, newIdx
}

// residual finishes a delta from the rows of each side that positional
// cancellation left over: restOld is subtracted from a TupleIndex of
// restNew, what found no partner is Minus and what is left in the index
// is Plus, both then sorted. ComputeColumnar's residualMatch is the same
// step on the lanes. The two slices are the caller's own and are consumed:
// Minus and Plus are filtered in place inside them, so nothing is
// allocated per surviving tuple and nothing grows.
func (r *Result) residual(restOld, restNew []schema.Tuple) {
	if len(restOld) == 0 && len(restNew) == 0 {
		return
	}
	surplus := storage.NewTupleIndex(len(restNew))
	for _, t := range restNew {
		surplus.Add(t)
	}
	r.Minus = filterInPlace(restOld, func(t schema.Tuple) bool { return !surplus.Remove(t) })
	// surplus now holds exactly Plus; draining it in restNew order (not
	// in map order) keeps the output deterministic even between tuples
	// that tie under Compare but render differently (1 vs 1.0). A tuple
	// not Equal to itself (a NaN cell) partnered nothing and no lookup
	// finds it again: it is Plus as it stands.
	r.Plus = filterInPlace(restNew, func(t schema.Tuple) bool {
		return !t.Equal(t) || surplus.Len() > 0 && surplus.Remove(t)
	})
	sortTuples(r.Minus)
	sortTuples(r.Plus)
}

// filterInPlace keeps, in order and within ts's own storage, the tuples
// keep accepts (it is called once per tuple, in order). The dropped
// tail is cleared so that the result retains only what it holds, and an
// empty result is nil, as an appended-to nil slice would be.
func filterInPlace(ts []schema.Tuple, keep func(schema.Tuple) bool) []schema.Tuple {
	k := 0
	for _, t := range ts {
		if keep(t) {
			ts[k] = t
			k++
		}
	}
	clear(ts[k:])
	if k == 0 {
		return nil
	}
	return ts[:k]
}

// sortTuples puts delta tuples in canonical order. Stable, so tuples
// that tie under Compare keep the deterministic order they arrived in.
func sortTuples(ts []schema.Tuple) {
	slices.SortStableFunc(ts, schema.Tuple.Compare)
}

// Empty reports whether the delta contains no tuples.
func (r *Result) Empty() bool { return len(r.Minus) == 0 && len(r.Plus) == 0 }

// Size returns the total number of annotated tuples.
func (r *Result) Size() int { return len(r.Minus) + len(r.Plus) }

// Equal reports whether two deltas contain the same annotated multisets.
func (r *Result) Equal(o *Result) bool {
	return tuplesEqual(r.Minus, o.Minus) && tuplesEqual(r.Plus, o.Plus)
}

func tuplesEqual(a, b []schema.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// String renders the delta with -/+ annotations.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Δ %s (%d tuples)\n", r.Relation, r.Size())
	for _, t := range r.Minus {
		fmt.Fprintf(&b, "  - %s\n", t)
	}
	for _, t := range r.Plus {
		fmt.Fprintf(&b, "  + %s\n", t)
	}
	return b.String()
}

// Set is the delta of a whole database, keyed by relation name.
type Set map[string]*Result

// Empty reports whether every per-relation delta is empty.
func (s Set) Empty() bool {
	for _, r := range s {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// Size returns the total annotated-tuple count across relations.
func (s Set) Size() int {
	n := 0
	for _, r := range s {
		n += r.Size()
	}
	return n
}

// String renders all non-empty per-relation deltas in name order.
func (s Set) String() string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		if s[n].Empty() {
			continue
		}
		b.WriteString(s[n].String())
	}
	if b.Len() == 0 {
		return "Δ ∅ (histories agree)\n"
	}
	return b.String()
}
