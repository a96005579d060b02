package algebra

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// AggFunc enumerates the aggregate functions of γ.
type AggFunc uint8

const (
	AggCount AggFunc = iota // COUNT(*) when Arg is nil, else COUNT(e) over non-NULL e
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	}
	return fmt.Sprintf("AggFunc(%d)", uint8(f))
}

// AggExpr is one aggregate output column. A nil Arg is COUNT(*).
type AggExpr struct {
	Name string
	Fn   AggFunc
	Arg  expr.Expr
}

// Aggregate is grouped aggregation (γ_{G; F}). Output columns are the
// grouping expressions followed by the aggregates, and groups are
// emitted in first-appearance order of the input — deterministic
// because every executor produces interpreter-exact input order.
// With no GroupBy the node is a global aggregate: exactly one output
// row, even over empty input (COUNT = 0, other aggregates NULL).
type Aggregate struct {
	GroupBy []NamedExpr
	Aggs    []AggExpr
	In      Query
}

func (*Aggregate) isQuery() {}

func (q *Aggregate) String() string {
	var b strings.Builder
	b.WriteString("γ[")
	for i, ne := range q.GroupBy {
		if i > 0 {
			b.WriteString(", ")
		}
		if c, ok := ne.E.(*expr.Col); ok && strings.EqualFold(c.Name, ne.Name) {
			b.WriteString(ne.Name)
			continue
		}
		fmt.Fprintf(&b, "%s→%s", ne.E, ne.Name)
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("; ")
	}
	for i, a := range q.Aggs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s→%s", a.CallString(), a.Name)
	}
	b.WriteString("](")
	b.WriteString(q.In.String())
	b.WriteByte(')')
	return b.String()
}

// Funcs returns the aggregate function of each output aggregate.
func (q *Aggregate) Funcs() []AggFunc {
	fns := make([]AggFunc, len(q.Aggs))
	for j, a := range q.Aggs {
		fns[j] = a.Fn
	}
	return fns
}

// CallString renders the aggregate call itself, e.g. "SUM(price)".
func (a AggExpr) CallString() string {
	if a.Arg == nil {
		return a.Fn.String() + "(*)"
	}
	return a.Fn.String() + "(" + a.Arg.String() + ")"
}

// ResultKind gives the static output type of the aggregate over the
// input schema. COUNT is always integer and AVG always float; SUM,
// MIN, and MAX inherit the argument's kind. Like ExprKind this is a
// best-effort hint — the typed executor lanes fall back per batch when
// runtime values disagree.
func (a AggExpr) ResultKind(in *schema.Schema) types.Kind {
	switch a.Fn {
	case AggCount:
		return types.KindInt
	case AggAvg:
		return types.KindFloat
	}
	if a.Arg == nil {
		return types.KindNull
	}
	return ExprKind(a.Arg, in)
}

// AggAcc accumulates one aggregate over a bag of argument values. It is
// the single definition of aggregate semantics, shared by the
// interpreter and the vectorized executor so the two cannot drift:
//
//   - COUNT(*) counts rows (AddRow); COUNT(e) counts non-NULL e.
//   - SUM and AVG skip NULLs and reject non-numeric values. Their result
//     depends on the bag only, never on the order of the values: an
//     int-only bag sums to an int with int64 wraparound; a bag holding
//     any float sums to its exact total (integers at their exact value)
//     rounded once to the nearest float64, ties to even — a zero total
//     is +0 — and is an error when that rounded total is not finite (an
//     overflow, or a NaN or ±Inf in the bag), whatever the partial sums
//     did on the way.
//   - AVG is the exact total, rounded as above, divided by the non-NULL
//     count; always float, and an error exactly when SUM would be one.
//   - MIN/MAX use Value.Compare, keep the first-seen value on ties, and
//     error on incomparable kinds.
//   - Over zero accumulated values COUNT yields 0 and the rest NULL.
//
// Because SUM/AVG are exact, accumulators merge: Merge folds another
// accumulator's bag in (sign +1) or takes it out (sign −1), and the
// result equals accumulating the merged bag value by value.
type AggAcc struct {
	fn    AggFunc
	count int64
	ext   types.Value // current MIN/MAX extremum
	sum   exactSum    // SUM/AVG total
}

// NewAggAcc returns an empty accumulator for fn.
func NewAggAcc(fn AggFunc) AggAcc { return AggAcc{fn: fn} }

// ErrExtremumRemoved and ErrExtremumTie are Merge's refusals to merge a
// MIN or MAX whose result the two states do not determine: a removed
// value equal to the extremum (the next one is not known), and an added
// value that ties the extremum without being identical to it (1 and
// 1.0: which one the merged bag shows depends on where it sits in the
// input order).
var (
	ErrExtremumRemoved = errors.New("algebra: a removed value equals the MIN/MAX extremum")
	ErrExtremumTie     = errors.New("algebra: an added value ties the MIN/MAX extremum without being identical to it")
)

// AddRow accumulates one input row for COUNT(*); it is a no-op for
// every other function (their Add is driven by the argument value).
func (a *AggAcc) AddRow() {
	if a.fn == AggCount {
		a.count++
	}
}

// Add accumulates one argument value. Not used for COUNT(*).
func (a *AggAcc) Add(v types.Value) error {
	switch v.Kind() {
	case types.KindNull:
		return nil
	case types.KindInt:
		return a.AddInt(v.AsInt())
	case types.KindFloat:
		return a.AddFloat(v.AsFloat())
	}
	switch a.fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		return fmt.Errorf("algebra: %s over %s value", a.fn, v.Kind())
	}
	return a.addExtremum(v)
}

// AddInt accumulates an int64, as Add(types.Int(i)) does, without
// boxing it on the typed-lane paths.
func (a *AggAcc) AddInt(i int64) error {
	switch a.fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		a.count++
		a.sum.addInt(i)
		return nil
	}
	if a.count > 0 && a.ext.Kind() == types.KindInt {
		if cur := a.ext.AsInt(); a.fn == AggMin && i < cur || a.fn == AggMax && i > cur {
			a.ext = types.Int(i)
		}
		a.count++
		return nil
	}
	return a.addExtremum(types.Int(i))
}

// AddFloat accumulates a float64, as Add(types.Float(f)) does, without
// boxing it on the typed-lane paths.
func (a *AggAcc) AddFloat(f float64) error {
	switch a.fn {
	case AggCount:
		a.count++
		return nil
	case AggSum, AggAvg:
		a.count++
		a.sum.addFloat(f)
		return nil
	}
	if a.count > 0 && a.ext.Kind() == types.KindFloat {
		if cur := a.ext.AsFloat(); a.fn == AggMin && f < cur || a.fn == AggMax && f > cur {
			a.ext = types.Float(f)
		}
		a.count++
		return nil
	}
	return a.addExtremum(types.Float(f))
}

// addExtremum accumulates one non-NULL MIN/MAX value.
func (a *AggAcc) addExtremum(v types.Value) error {
	if a.count == 0 {
		a.count, a.ext = 1, v
		return nil
	}
	c, err := v.Compare(a.ext)
	if err != nil {
		return fmt.Errorf("algebra: %s: %w", a.fn, err)
	}
	if a.better(c) {
		a.ext = v
	}
	a.count++
	return nil
}

// better reports whether a value comparing c against the extremum
// replaces it.
func (a *AggAcc) better(c int) bool { return a.fn == AggMin && c < 0 || a.fn == AggMax && c > 0 }

// Merge folds o's bag into a (sign > 0) or takes it out of a (sign < 0);
// o must accumulate the same function, and a bag taken out must be part
// of a's. COUNT, SUM and AVG always merge exactly. MIN and MAX refuse
// with ErrExtremumRemoved or ErrExtremumTie where the states do not
// determine the merged bag's result, and return Compare's error where
// the merged bag's values are incomparable.
func (a *AggAcc) Merge(o *AggAcc, sign int) error {
	switch a.fn {
	case AggCount:
		a.count += int64(sign) * o.count
		return nil
	case AggSum, AggAvg:
		a.count += int64(sign) * o.count
		a.sum.merge(&o.sum, int64(sign))
		return nil
	}
	if o.count == 0 {
		return nil
	}
	if sign < 0 {
		if c, err := o.ext.Compare(a.ext); a.count == 0 || err != nil || c == 0 {
			return ErrExtremumRemoved
		}
		a.count -= o.count
		return nil
	}
	if a.count == 0 {
		a.count, a.ext = o.count, o.ext
		return nil
	}
	c, err := o.ext.Compare(a.ext)
	if err != nil {
		return fmt.Errorf("algebra: %s: %w", a.fn, err)
	}
	if c == 0 && !identical(o.ext, a.ext) {
		return ErrExtremumTie
	}
	if a.better(c) {
		a.ext = o.ext
	}
	a.count += o.count
	return nil
}

// identical reports whether two values are the same value of the same
// kind, bit for bit (Equal lets 1 match 1.0 and -0.0 match +0.0).
func identical(x, y types.Value) bool {
	if x.Kind() != y.Kind() {
		return false
	}
	if x.Kind() == types.KindFloat {
		return math.Float64bits(x.AsFloat()) == math.Float64bits(y.AsFloat())
	}
	return x.Equal(y)
}

// Result finalizes the accumulator.
func (a *AggAcc) Result() (types.Value, error) {
	switch a.fn {
	case AggCount:
		return types.Int(a.count), nil
	case AggMin, AggMax:
		if a.count == 0 {
			return types.Null(), nil
		}
		return a.ext, nil
	case AggSum, AggAvg:
		if a.count == 0 {
			return types.Null(), nil
		}
		if a.fn == AggSum && a.sum.floats == 0 {
			return types.Int(int64(a.sum.ilo)), nil
		}
		if a.sum.special > 0 {
			return types.Null(), fmt.Errorf("algebra: %s: the values include a NaN or an infinity; the total is outside the finite float domain", a.fn)
		}
		t := a.sum.total()
		if math.IsInf(t, 0) {
			return types.Null(), fmt.Errorf("algebra: %s: total %v outside the finite float domain", a.fn, t)
		}
		if a.fn == AggAvg {
			t /= float64(a.count)
		}
		return types.Float(t), nil
	}
	return types.Null(), fmt.Errorf("algebra: unknown aggregate %s", a.fn)
}

// GroupIndex assigns dense group ordinals to key tuples in
// first-appearance order. Identity is Tuple.Hash + Tuple.Equal (NULL
// keys form one group, and cross-kind numeric keys like 1 and 1.0
// collide) — every executor must group through this index so the
// equivalence relation cannot diverge.
type GroupIndex struct {
	buckets map[uint64][]int
	keys    []schema.Tuple
}

// NewGroupIndex returns an empty index.
func NewGroupIndex() *GroupIndex {
	return &GroupIndex{buckets: make(map[uint64][]int)}
}

// Lookup finds key's group ordinal, or -1. The hash must be key.Hash()
// (callers on the vectorized path compute it column-wise).
func (g *GroupIndex) Lookup(h uint64, key schema.Tuple) int {
	for _, i := range g.buckets[h] {
		if g.keys[i].Equal(key) {
			return i
		}
	}
	return -1
}

// Add inserts key (which must not already be present) and returns its
// new ordinal. The key tuple is retained; callers pass an owned tuple.
func (g *GroupIndex) Add(h uint64, key schema.Tuple) int {
	i := len(g.keys)
	g.keys = append(g.keys, key)
	g.buckets[h] = append(g.buckets[h], i)
	return i
}

// Len returns the number of distinct groups seen.
func (g *GroupIndex) Len() int { return len(g.keys) }

// Key returns the representative key tuple of group i (the first-seen
// values, which matters when cross-kind numeric keys collide).
func (g *GroupIndex) Key(i int) schema.Tuple { return g.keys[i] }

// clone returns an index that starts out equal to g and grows without
// writing into g: every slice is capped, so the first append copies.
func (g *GroupIndex) clone() *GroupIndex {
	c := &GroupIndex{buckets: make(map[uint64][]int, len(g.buckets)), keys: slices.Clip(g.keys)}
	for h, b := range g.buckets {
		c.buckets[h] = slices.Clip(b)
	}
	return c
}

// GroupState is a γ before finalization: its groups in first-appearance
// order, each group's accumulators, and how many input rows each group
// holds. Both executors fold their input into one (EvalGroupState,
// exec.Program.RunGroupStateCtx) and the γ's output is its Rows.
//
// States of one γ over different bags merge: Merge folds another state
// in (sign +1) or takes it out (sign −1), groups matched by key, and a
// group no row is left in has no output row. So an aggregate report can
// keep a relation's state and answer a hypothetical change as
// historical − Minus + Plus, with Minus and Plus folded by the same γ.
type GroupState struct {
	fns     []AggFunc
	grouped bool
	keys    *GroupIndex // nil for a global γ, whose one group is 0
	accs    []AggAcc    // len(fns) per group
	rows    []int64     // input rows per group
}

// NewGroupState returns the empty state of a γ computing fns, grouped
// or global. A global state has its one group from the start.
func NewGroupState(fns []AggFunc, grouped bool) *GroupState {
	s := &GroupState{fns: fns, grouped: grouped}
	if grouped {
		s.keys = NewGroupIndex()
	} else {
		s.addGroup()
	}
	return s
}

func (s *GroupState) addGroup() int {
	for _, fn := range s.fns {
		s.accs = append(s.accs, NewAggAcc(fn))
	}
	s.rows = append(s.rows, 0)
	return len(s.rows) - 1
}

// Group returns the ordinal of key's group, adding the group (with a
// copy of key) when it is new; h must be key.Hash(). A global state
// answers 0.
func (s *GroupState) Group(h uint64, key schema.Tuple) int {
	if !s.grouped {
		return 0
	}
	if g := s.keys.Lookup(h, key); g >= 0 {
		return g
	}
	s.keys.Add(h, key.Clone())
	return s.addGroup()
}

// Acc returns group g's accumulator of aggregate j.
func (s *GroupState) Acc(g, j int) *AggAcc { return &s.accs[g*len(s.fns)+j] }

// AddRows counts n more input rows in group g.
func (s *GroupState) AddRows(g int, n int64) { s.rows[g] += n }

// Len returns the number of groups, including any a merge emptied.
func (s *GroupState) Len() int { return len(s.rows) }

// Key returns group g's key (empty for a global state).
func (s *GroupState) Key(g int) schema.Tuple {
	if !s.grouped {
		return schema.Tuple{}
	}
	return s.keys.Key(g)
}

// Clone returns a copy of s that merges without changing s, which may
// be shared read-only.
func (s *GroupState) Clone() *GroupState {
	c := &GroupState{fns: s.fns, grouped: s.grouped, accs: slices.Clone(s.accs), rows: slices.Clone(s.rows)}
	for i := range c.accs {
		sum := &c.accs[i].sum
		sum.borrowed = sum.spill != nil || sum.big != nil
	}
	if s.grouped {
		c.keys = s.keys.clone()
	}
	return c
}

// Merge folds o, a state of the same γ, into s (sign > 0) or takes it
// out of s (sign < 0); o's groups that s lacks are added after s's, in
// o's order. A state taken out must hold a sub-bag of s's rows. The
// error is AggAcc.Merge's (ErrExtremumRemoved, ErrExtremumTie, or an
// incomparable MIN/MAX); s is then partly merged and must be dropped.
func (s *GroupState) Merge(o *GroupState, sign int) error {
	for g := 0; g < o.Len(); g++ {
		dst := 0
		if s.grouped {
			key := o.keys.Key(g)
			dst = s.Group(key.Hash(), key)
		}
		s.rows[dst] += int64(sign) * o.rows[g]
		for j := range s.fns {
			if err := s.Acc(dst, j).Merge(o.Acc(g, j), sign); err != nil {
				return err
			}
		}
	}
	return nil
}

// Finalize writes group g's output row — its key, then each
// aggregate's result — into row (one cell per output column) and
// reports whether the group has a row: a grouped state's group has one
// while it holds input rows, a global state's always.
func (s *GroupState) Finalize(g int, row schema.Tuple) (bool, error) {
	if s.grouped && s.rows[g] <= 0 {
		return false, nil
	}
	nG := copy(row, s.Key(g))
	for j := range s.fns {
		v, err := s.Acc(g, j).Result()
		if err != nil {
			return false, err
		}
		row[nG+j] = v
	}
	return true, nil
}

// Row finalizes group g into a fresh output row, or nil when the group
// has none (see Finalize).
func (s *GroupState) Row(g int) (schema.Tuple, error) {
	row := make(schema.Tuple, s.arity(g))
	ok, err := s.Finalize(g, row)
	if !ok || err != nil {
		return nil, err
	}
	return row, nil
}

func (s *GroupState) arity(g int) int { return len(s.Key(g)) + len(s.fns) }

// Rows finalizes every group that has a row, in group order: the γ's
// output.
func (s *GroupState) Rows() ([]schema.Tuple, error) {
	out := make([]schema.Tuple, 0, s.Len())
	for g := 0; g < s.Len(); g++ {
		row, err := s.Row(g)
		if err != nil {
			return nil, err
		}
		if row != nil {
			out = append(out, row)
		}
	}
	return out, nil
}

// EvalGroupState evaluates the γ's input over db with the interpreter
// and folds it into the γ's state.
func EvalGroupState(x *Aggregate, db *storage.Database) (*GroupState, error) {
	in, err := Eval(x.In, db)
	if err != nil {
		return nil, err
	}
	return foldAggregate(x, in)
}

// foldAggregate folds a materialized γ input into the γ's state.
func foldAggregate(x *Aggregate, in *storage.Relation) (*GroupState, error) {
	st := NewGroupState(x.Funcs(), len(x.GroupBy) > 0)
	key := make(schema.Tuple, len(x.GroupBy))
	for _, t := range in.Tuples {
		env := expr.TupleEnv(in.Schema, t)
		for i, ne := range x.GroupBy {
			v, err := expr.Eval(ne.E, env)
			if err != nil {
				return nil, fmt.Errorf("algebra: γ[%s]: %w", ne.E, err)
			}
			key[i] = v
		}
		g := st.Group(key.Hash(), key)
		st.AddRows(g, 1)
		for j, a := range x.Aggs {
			if a.Arg == nil {
				st.Acc(g, j).AddRow()
				continue
			}
			v, err := expr.Eval(a.Arg, env)
			if err != nil {
				return nil, fmt.Errorf("algebra: γ[%s]: %w", a.CallString(), err)
			}
			if err := st.Acc(g, j).Add(v); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// evalAggregate executes the γ node over a materialized input.
func evalAggregate(x *Aggregate, in *storage.Relation, outSchema *schema.Schema) (*storage.Relation, error) {
	st, err := foldAggregate(x, in)
	if err != nil {
		return nil, err
	}
	out := storage.NewRelation(outSchema)
	if out.Tuples, err = st.Rows(); err != nil {
		return nil, err
	}
	return out, nil
}
