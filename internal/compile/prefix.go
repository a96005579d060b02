package compile

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/types"
)

// Prefix is a condition that a run of satisfiability checks shares as
// its leading conjunct. The §9 dependency test asks Φ_D ∧ affected ∧
// touched_i for every statement i of a history, and Φ_D ∧ affected is
// most of each formula; a Prefix simplifies and hashes it once, lowers
// it into a model once (on the first check the memo cannot answer),
// and leaves each check to simplify, hash, intern and lower only its
// own conjuncts — on a child compiler that reads the prefix's frozen
// model, tables and memos and writes only its own entries.
//
// p.SatisfiableCtx(ctx, conj...) decides cond ∧ conj… exactly as a
// fresh compilation of the whole conjunction would. The compiler lowers
// a conjunction's left spine first, so the prefix is the first thing a
// fresh compilation lowers too, and a child's model is the fresh model
// variable for variable and constraint for constraint: same verdict,
// witness, Nodes, Vars and Cons. Where simplification does not leave
// the prefix at the bottom of the left spine (a conjunct simplified to
// false, or cond to true), the check compiles afresh. Memo keys are
// those of the whole simplified formula, so they are shared with every
// other caller asking the same question, and a Prefix with the same
// structure as another hits the other's outcomes.
//
// A Prefix is safe for concurrent use. It keeps nothing beyond itself:
// the lowered prefix is dropped with the Prefix.
type Prefix struct {
	root  expr.Expr             // Simplify(cond)
	kinds map[string]types.Kind // with Options.ParamKinds merged in
	opts  Options
	// spine is false when root is a node the compiler does not know;
	// nothing can then extend it (and it is never compared).
	spine  bool
	digest memoKey // nodeDigest(root), when opts.Memo is set
	env    memoKey // envDigest(kinds, opts), when opts.Memo is set

	once sync.Once
	base *compiler // root lowered, read-only from then on
	err  error     // why root failed to lower

	lowered atomic.Int64
}

// NewPrefix prepares cond as the leading conjunct of later checks (see
// Prefix). kinds and opts are as for SatisfiableCtx; nothing is lowered
// until a check needs it.
func NewPrefix(cond expr.Expr, kinds map[string]types.Kind, opts Options) *Prefix {
	p := &Prefix{root: expr.Simplify(cond), kinds: withParamKinds(kinds, opts.ParamKinds), opts: opts}
	_, _, p.spine = shape(p.root)
	if opts.Memo != nil {
		p.digest = nodeDigest(p.root)
		p.env = envDigest(p.kinds, opts)
	}
	return p
}

// SatisfiableCtx decides cond ∧ conj… (cond is the prefix's) as
// SatisfiableCtx(ctx, expr.AndOf(cond, conj…), kinds, opts) does, with
// the same outcome, memo key and errors — a prefix that fails to lower
// fails every check that needs it, with the error a fresh compilation
// reports. Cancellation is observed as there; a cancelled check leaves
// the prefix usable.
func (p *Prefix) SatisfiableCtx(ctx context.Context, conj ...expr.Expr) (*Outcome, error) {
	whole := p.conjoin(conj)
	memo := p.opts.Memo
	var key memoKey
	if memo != nil {
		key = queryKey(p.digestOf(whole), p.env)
		if out, ok := memo.Lookup(key); ok {
			return out, nil
		}
	}
	c, err := p.compilerFor(whole)
	if err != nil {
		return nil, err
	}
	out, err := c.solve(ctx, whole)
	p.lowered.Add(int64(c.lowered))
	if err == nil && memo != nil {
		memo.Store(key, out)
	}
	return out, err
}

// Lowered reports the expression nodes lowered into models on behalf of
// the prefix so far: the prefix itself once, plus what each check
// added. Checks answered by the memo lower nothing.
func (p *Prefix) Lowered() int { return int(p.lowered.Load()) }

// conjoin returns Simplify(cond ∧ conj…), simplifying only conj: the
// simplified prefix is the bottom of the result's left spine unless a
// simplification rule folded it away.
func (p *Prefix) conjoin(conj []expr.Expr) expr.Expr {
	whole := p.root
	for _, c := range conj {
		whole = expr.SimplifyAnd(whole, expr.Simplify(c))
	}
	return whole
}

// digestOf returns nodeDigest(e) for a formula built on the prefix,
// hashing only what lies outside it.
func (p *Prefix) digestOf(e expr.Expr) memoKey {
	if p.spine && e == p.root {
		return p.digest
	}
	if a, ok := e.(*expr.And); ok {
		return andDigest(p.digestOf(a.L), nodeDigest(a.R))
	}
	return nodeDigest(e)
}

// compilerFor returns the compiler to lower whole on: a child of the
// lowered prefix when whole's left spine ends at it, else a fresh one.
func (p *Prefix) compilerFor(whole expr.Expr) (*compiler, error) {
	nodes, ok := p.extendedBy(whole)
	if !ok {
		return newCompiler(p.kinds, p.opts), nil
	}
	p.once.Do(p.lower)
	if p.err != nil {
		return nil, p.err
	}
	return p.base.above(nodes), nil
}

// extendedBy reports whether e is the prefix conjoined with zero or
// more conjuncts down its left spine, and how many nodes those add.
func (p *Prefix) extendedBy(e expr.Expr) (nodes int, ok bool) {
	for p.spine {
		if e == p.root {
			return nodes, true
		}
		a, isAnd := e.(*expr.And)
		if !isAnd {
			break
		}
		nodes += 1 + expr.Size(a.R)
		e = a.L
	}
	return 0, false
}

// lower compiles the prefix into the compiler its checks extend.
func (p *Prefix) lower() {
	c := newCompiler(p.kinds, p.opts)
	_, p.err = c.compileBool(p.root)
	p.base = c
	p.lowered.Add(int64(c.lowered))
}

// layer is a map that reads through to a frozen map below it and
// writes only to its own: a child compiler's tables over the prefix's.
// A key is written only after it was missed in both, so the two never
// hold the same key and the layer's size is the sum of theirs.
type layer[K comparable, V any] struct {
	own   map[K]V
	below map[K]V // read-only; nil when there is nothing below
}

// above returns an empty layer over l's entries; l must have nothing
// below it itself.
func (l layer[K, V]) above(hint int) layer[K, V] {
	return layer[K, V]{own: make(map[K]V, hint), below: l.own}
}

func (l layer[K, V]) get(k K) (V, bool) {
	if v, ok := l.below[k]; ok {
		return v, true
	}
	v, ok := l.own[k]
	return v, ok
}

func (l layer[K, V]) put(k K, v V) { l.own[k] = v }

func (l layer[K, V]) len() int { return len(l.own) + len(l.below) }

func (l layer[K, V]) each(f func(K, V)) {
	for k, v := range l.below {
		f(k, v)
	}
	for k, v := range l.own {
		f(k, v)
	}
}
