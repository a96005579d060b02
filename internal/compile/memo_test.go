package compile

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/milp"
	"github.com/mahif/mahif/internal/types"
)

// hashQuery is the memo key of one whole query, computed from scratch:
// what a Prefix must arrive at for any formula it extends.
func hashQuery(cond expr.Expr, kinds map[string]types.Kind, opts Options) memoKey {
	return queryKey(nodeDigest(cond, kinds), envDigest(opts))
}

func TestMemoReusesOutcome(t *testing.T) {
	cond := expr.And{
		L: expr.Ge(expr.Variable("x"), expr.IntConst(3)),
		R: expr.Lt(expr.Variable("x"), expr.IntConst(10)),
	}
	kinds := map[string]types.Kind{"x": types.KindInt}
	memo := NewMemo()
	opts := Options{Memo: memo}

	first, err := Satisfiable(&cond, kinds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Sat || !first.Definitive {
		t.Fatalf("outcome = %+v, want definitive sat", first)
	}
	second, err := Satisfiable(&cond, kinds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("memoized call returned a different outcome object")
	}
	hits, misses := memo.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats() = %d hits, %d misses, want 1, 1", hits, misses)
	}
	if memo.Len() != 1 {
		t.Errorf("Len() = %d, want 1", memo.Len())
	}
}

func TestMemoDistinguishesKindsAndShape(t *testing.T) {
	memo := NewMemo()
	cond := expr.Eq(expr.Variable("x"), expr.Variable("y"))
	asFloat := map[string]types.Kind{"x": types.KindFloat, "y": types.KindFloat}
	asString := map[string]types.Kind{"x": types.KindString, "y": types.KindString}
	if _, err := Satisfiable(cond, asFloat, Options{Memo: memo}); err != nil {
		t.Fatal(err)
	}
	if _, err := Satisfiable(cond, asString, Options{Memo: memo}); err != nil {
		t.Fatal(err)
	}
	if memo.Len() != 2 {
		t.Errorf("Len() = %d: kind maps were conflated", memo.Len())
	}

	// A column and a variable of the same name must not share a key.
	k1 := hashQuery(expr.Variable("a"), nil, Options{})
	k2 := hashQuery(&expr.Col{Name: "a"}, nil, Options{})
	if k1 == k2 {
		t.Error("memo key conflates Var and Col of the same name")
	}
}

// fakeNodeA and fakeNodeB are two structurally distinct expression
// node types unknown to the compiler whose String() renderings
// coincide. They satisfy expr.Expr by embedding the interface (the
// marker method is never called on them).
type fakeNodeA struct{ expr.Expr }

func (fakeNodeA) String() string { return "opaque" }

type fakeNodeB struct{ expr.Expr }

func (fakeNodeB) String() string { return "opaque" }

// TestMemoUnknownNodeTypesNotConflated is the regression test for the
// opaque fallback of the memo key: before it was tagged with the
// concrete type, two distinct unknown node types rendering identically
// shared a key and silently reused each other's solver outcomes. The
// same holds one level down, below a node the hash does know.
func TestMemoUnknownNodeTypesNotConflated(t *testing.T) {
	a := hashQuery(fakeNodeA{}, nil, Options{})
	b := hashQuery(fakeNodeB{}, nil, Options{})
	if a == b {
		t.Fatalf("memo key conflates distinct unknown node types: %v", a)
	}
	a = hashQuery(expr.Negation(fakeNodeA{}), nil, Options{})
	b = hashQuery(expr.Negation(fakeNodeB{}), nil, Options{})
	if a == b {
		t.Fatalf("memo key conflates distinct unknown node types below NOT: %v", a)
	}
	if FingerprintExpr(fakeNodeA{}) == FingerprintExpr(fakeNodeB{}) {
		t.Fatal("FingerprintExpr conflates distinct unknown node types")
	}
}

// TestMemoKeyFoldsInKindsAndBudget: everything that can change a
// verdict besides the condition is part of the key — the kinds of the
// names the condition mentions and the solver budget — and a kind-map
// entry the condition does not mention is not.
func TestMemoKeyFoldsInKindsAndBudget(t *testing.T) {
	cond := expr.Ge(expr.Variable("x"), expr.Parameter("p"))
	kinds := map[string]types.Kind{"x": types.KindInt, "$p": types.KindInt}
	base := hashQuery(cond, kinds, Options{})
	if base != hashQuery(cond, map[string]types.Kind{"$p": types.KindInt, "x": types.KindInt}, Options{}) {
		t.Error("memo key depends on map iteration order")
	}
	variants := map[string]memoKey{
		"kind of x":       hashQuery(cond, map[string]types.Kind{"x": types.KindFloat, "$p": types.KindInt}, Options{}),
		"kind of $p":      hashQuery(cond, map[string]types.Kind{"x": types.KindInt, "$p": types.KindFloat}, Options{}),
		"MaxNodes":        hashQuery(cond, kinds, Options{Solve: milp.SolveOptions{MaxNodes: 800}}),
		"MaxIter":         hashQuery(cond, kinds, Options{Solve: milp.SolveOptions{MaxIter: 800}}),
		"name boundaries": hashQuery(cond, map[string]types.Kind{"x$": types.KindInt, "p": types.KindInt}, Options{}),
	}
	for what, k := range variants {
		if k == base {
			t.Errorf("memo key ignores %s", what)
		}
	}
	// A variable the condition does not mention cannot change its
	// verdict, so it does not change its key either.
	if hashQuery(cond, map[string]types.Kind{"x": types.KindInt, "$p": types.KindInt, "y": types.KindInt}, Options{}) != base {
		t.Error("memo key depends on an extra variable the condition does not mention")
	}

	// ParamKinds reach the key through the merged kind map: the same
	// template condition under two parameter kinds is two memo entries.
	memo := NewMemo()
	for _, k := range []types.Kind{types.KindInt, types.KindFloat} {
		opts := Options{Memo: memo, ParamKinds: map[string]types.Kind{"p": k}}
		if _, err := Satisfiable(cond, map[string]types.Kind{"x": types.KindInt}, opts); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Len() != 2 {
		t.Errorf("Len() = %d: differing ParamKinds were conflated", memo.Len())
	}
}

// TestMemoKeyReadsOnlyMentionedKinds draws random formulas over x, y,
// s and $p and requires the key to follow the kind map exactly as far
// as lowering reads it: an entry for a name the formula does not
// mention never moves the key, a changed kind of a name it mentions
// always does, and so does dropping a mentioned name from the map (an
// absent name is not a present one, not even of the zero Kind).
func TestMemoKeyReadsOnlyMentionedKinds(t *testing.T) {
	g := corpus{rand.New(rand.NewSource(41))}
	base := map[string]types.Kind{"x": types.KindInt, "y": types.KindFloat, "s": types.KindString, "$p": types.KindInt}
	with := func(name string, k types.Kind, present bool) map[string]types.Kind {
		m := make(map[string]types.Kind, len(base)+1)
		for n, kk := range base {
			m[n] = kk
		}
		if present {
			m[name] = k
		} else {
			delete(m, name)
		}
		return m
	}
	for i := 0; i < 2000; i++ {
		cond := g.cond(2)
		mentioned := expr.Vars(cond)
		for p := range expr.Params(cond) {
			mentioned["$"+p] = true
		}
		key := hashQuery(cond, base, Options{})
		if k := hashQuery(cond, with("z", types.KindBool, true), Options{}); k != key {
			t.Fatalf("%s: an entry for unmentioned z moved the key", cond)
		}
		for name := range base {
			changed := hashQuery(cond, with(name, types.KindBool, true), Options{})
			absent := hashQuery(cond, with(name, 0, false), Options{})
			// KindNull is the zero Kind: only presence tells it from absence.
			null := hashQuery(cond, with(name, types.KindNull, true), Options{})
			if mentioned[name] {
				if changed == key || absent == key || changed == absent || null == absent {
					t.Fatalf("%s: key ignores the kind of mentioned %s (changed %t, absent %t, null as absent %t)",
						cond, name, changed == key, absent == key, null == absent)
				}
			} else if changed != key || absent != key || null != key {
				t.Fatalf("%s: the kind of unmentioned %s moved the key", cond, name)
			}
		}
	}
}

// TestMemoKeyTellsAbsentFromPresent: a variable the kind map does not
// hold fails to lower in condition position, where a present bool
// lowers, and a memo shared by the asks keeps the two apart.
func TestMemoKeyTellsAbsentFromPresent(t *testing.T) {
	memo := NewMemo()
	cond := expr.AndOf(expr.Variable("b"), expr.Gt(expr.Variable("x"), expr.IntConst(1)))
	if _, err := Satisfiable(cond, map[string]types.Kind{"x": types.KindInt}, Options{Memo: memo}); err == nil {
		t.Fatal("an absent variable in condition position lowered")
	}
	out, err := Satisfiable(cond, map[string]types.Kind{"x": types.KindInt, "b": types.KindBool}, Options{Memo: memo})
	if err != nil || !out.Sat {
		t.Fatalf("present bool: outcome %+v, err %v", out, err)
	}
	if _, err := Satisfiable(cond, map[string]types.Kind{"x": types.KindInt}, Options{Memo: memo}); err == nil {
		t.Fatal("the absent variable's ask was answered by the present one's outcome")
	}
}

// TestMemoSharedAcrossGrowingKindMaps is the append case: a history's
// kind map gains the fresh variables of each appended statement, and a
// check that mentions none of them hits the outcome an ask under the
// smaller map left, through a Prefix as through a whole-formula call.
func TestMemoSharedAcrossGrowingKindMaps(t *testing.T) {
	memo := NewMemo()
	opts := Options{Memo: memo}
	phi := expr.AndOf(expr.Ge(expr.Variable("x_0"), expr.IntConst(3)), expr.Lt(expr.Variable("x_0"), expr.Parameter("cut")))
	touched := expr.Gt(expr.Variable("x_0"), expr.IntConst(5))
	kinds := map[string]types.Kind{"x_0": types.KindInt}
	paramOpts := opts
	paramOpts.ParamKinds = map[string]types.Kind{"cut": types.KindFloat}
	first, err := NewPrefix(phi, kinds, paramOpts).SatisfiableCtx(context.Background(), touched)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		grown := make(map[string]types.Kind, len(kinds)+2)
		for n, k := range kinds {
			grown[n] = k
		}
		grown[fmt.Sprintf("x_%d", step)] = types.KindFloat
		grown[fmt.Sprintf("y_%d", step)] = types.KindString
		kinds = grown
		viaPrefix, err := NewPrefix(phi, kinds, paramOpts).SatisfiableCtx(context.Background(), touched)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := Satisfiable(expr.AndOf(phi, touched), kinds, paramOpts)
		if err != nil {
			t.Fatal(err)
		}
		if viaPrefix != first || whole != first {
			t.Fatalf("append %d: the grown kind map missed the memo", step)
		}
	}
	if hits, misses := memo.Stats(); hits != 6 || misses != 1 {
		t.Errorf("memo Stats() = %d hits, %d misses, want 6, 1", hits, misses)
	}
}

// TestMemoKeySeparatesUnequalFormulas draws 10⁵ random formula pairs
// over a deliberately tiny vocabulary (so near-misses are the rule) and
// requires formulas that are not expr.Equal to get different keys, and
// a structural copy at fresh addresses to get the same key.
func TestMemoKeySeparatesUnequalFormulas(t *testing.T) {
	pairs := 100000
	if testing.Short() {
		pairs = 10000
	}
	g := corpus{rand.New(rand.NewSource(97))}
	unequal := 0
	for i := 0; i < pairs; i++ {
		a, b := g.cond(2), g.cond(2)
		ka, kb := hashQuery(a, nil, Options{}), hashQuery(b, nil, Options{})
		if !expr.Equal(a, b) {
			unequal++
			if ka == kb {
				t.Fatalf("pair %d: different formulas, one key %v\n a = %s\n b = %s", i, ka, a, b)
			}
		}
		if kc := hashQuery(clone(a), nil, Options{}); kc != ka {
			t.Fatalf("pair %d: a copy of %s hashed to %v, the original to %v", i, a, kc, ka)
		}
	}
	if unequal < pairs/2 || unequal == pairs {
		t.Errorf("%d of %d pairs were unequal: the corpus is lopsided", unequal, pairs)
	}
}

// TestFingerprintParamDistinct pins that parameter slots fingerprint
// distinctly from columns, variables and constants of the same
// spelling, and that distinct constants never collide (the
// constant-abstracted template identity relies on both properties).
func TestFingerprintParamDistinct(t *testing.T) {
	prints := []string{
		FingerprintExpr(expr.Parameter("a")),
		FingerprintExpr(expr.Variable("$a")),
		FingerprintExpr(expr.Column("$a")),
		FingerprintExpr(expr.StringConst("$a")),
	}
	for i := 0; i < len(prints); i++ {
		for j := i + 1; j < len(prints); j++ {
			if prints[i] == prints[j] {
				t.Errorf("fingerprints %d and %d collide: %q", i, j, prints[i])
			}
		}
	}
	c1 := FingerprintExpr(expr.Gt(expr.Column("x"), expr.IntConst(5)))
	c2 := FingerprintExpr(expr.Gt(expr.Column("x"), expr.IntConst(6)))
	if c1 == c2 {
		t.Error("fingerprint ignores constant identity")
	}
	p1 := FingerprintExpr(expr.Gt(expr.Column("x"), expr.Parameter("p")))
	p2 := FingerprintExpr(expr.Gt(expr.Column("x"), expr.Parameter("p")))
	if p1 != p2 {
		t.Error("fingerprint not deterministic over parameters")
	}
}

func TestMemoAgreesWithoutMemo(t *testing.T) {
	conds := []expr.Expr{
		expr.Gt(expr.Variable("a"), expr.IntConst(5)),
		expr.AndOf(
			expr.Gt(expr.Variable("a"), expr.IntConst(5)),
			expr.Lt(expr.Variable("a"), expr.IntConst(3)),
		),
	}
	kinds := map[string]types.Kind{"a": types.KindInt}
	memo := NewMemo()
	for i, cond := range conds {
		plain, err := Satisfiable(cond, kinds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		memoed, err := Satisfiable(cond, kinds, Options{Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Sat != memoed.Sat || plain.Definitive != memoed.Definitive {
			t.Errorf("cond %d: memoized verdict %v/%v differs from plain %v/%v",
				i, memoed.Sat, memoed.Definitive, plain.Sat, plain.Definitive)
		}
	}
}

// TestMemoConcurrent exercises the memo from many goroutines (for the
// race detector).
func TestMemoConcurrent(t *testing.T) {
	memo := NewMemo()
	kinds := map[string]types.Kind{"v": types.KindInt}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cond := expr.Ge(expr.Variable("v"), expr.IntConst(int64(i%5)))
				if _, err := Satisfiable(cond, kinds, Options{Memo: memo}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if memo.Len() != 5 {
		t.Errorf("Len() = %d, want 5 distinct conditions", memo.Len())
	}
}

func TestMemoLRUBound(t *testing.T) {
	m := NewMemoCap(3)
	a, b, c, e := memoKey{lo: 1}, memoKey{lo: 2}, memoKey{lo: 3}, memoKey{lo: 5}
	for _, k := range []memoKey{a, b, c, {lo: 4}} {
		m.Store(k, &Outcome{})
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	if m.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", m.Evictions())
	}
	if _, ok := m.Lookup(a); ok {
		t.Fatalf("oldest key survived the bound")
	}
	// Touch "b" so "c" becomes the LRU victim of the next insert.
	if _, ok := m.Lookup(b); !ok {
		t.Fatalf("key b missing")
	}
	m.Store(e, &Outcome{})
	if _, ok := m.Lookup(c); ok {
		t.Fatalf("recency not honored: c should have been evicted before b")
	}
	if _, ok := m.Lookup(b); !ok {
		t.Fatalf("recently used key b evicted")
	}
}
