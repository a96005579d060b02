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
// Only that residual is hashed: its old side is subtracted from a
// TupleIndex of its new side. Two results that are not aligned (a row
// deleted on one side only shifts everything after it) leave a large
// residual and cost what a whole-relation multiset diff costs.
func Compute(oldRel, newRel *storage.Relation) *Result {
	out := &Result{Relation: oldRel.Schema.Relation, Schema: oldRel.Schema}
	olds, news := oldRel.Tuples, newRel.Tuples
	n := min(len(olds), len(news))
	var restOld, restNew []schema.Tuple
	for i := 0; i < n; i++ {
		if !olds[i].Equal(news[i]) {
			restOld = append(restOld, olds[i])
			restNew = append(restNew, news[i])
		}
	}
	restOld = append(restOld, olds[n:]...)
	restNew = append(restNew, news[n:]...)

	surplus := storage.NewTupleIndex(len(restNew))
	for _, t := range restNew {
		surplus.Add(t)
	}
	for _, t := range restOld {
		if !surplus.Remove(t) {
			out.Minus = append(out.Minus, t)
		}
	}
	// surplus now holds exactly Plus; draining it in restNew order (not
	// in map order) keeps the output deterministic even between tuples
	// that tie under Compare but render differently (1 vs 1.0).
	for _, t := range restNew {
		if surplus.Len() == 0 {
			break
		}
		if surplus.Remove(t) {
			out.Plus = append(out.Plus, t)
		}
	}
	sortTuples(out.Minus)
	sortTuples(out.Plus)
	return out
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
