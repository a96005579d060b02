package compile

import (
	"fmt"
	"hash/maphash"
	"math"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/types"
)

// Node tags shared by the interner and the memo-key hash. A tag names
// the node type, so a column, a variable, a parameter and a string
// constant of one spelling stay four different things.
const (
	tagConst uint8 = iota + 1
	tagCol
	tagVar
	tagParam
	tagArith
	tagCmp
	tagAnd
	tagOr
	tagNot
	tagIsNull
	tagIf
	tagUnknown
)

// constBits returns the typed payload of a constant: its kind, the
// 64 bits of an int, float or bool, and the text of a string. Int 2 and
// float 2.0 differ in kind, 0.0 and −0.0 in bits, so constants are told
// apart exactly as far as their SQL renderings are.
func constBits(v types.Value) (kind types.Kind, bits uint64, text string) {
	switch kind = v.Kind(); kind {
	case types.KindInt:
		bits = uint64(v.AsInt())
	case types.KindFloat:
		bits = math.Float64bits(v.AsFloat())
	case types.KindBool:
		if v.AsBool() {
			bits = 1
		}
	case types.KindString:
		text = v.AsString()
	}
	return kind, bits, text
}

// nodeKey is the structure of one expression node over already
// interned children: two nodes get one key exactly when they have the
// same type, the same operator, the same name or typed constant, and
// pairwise identical children. The interner numbers the nodes of one
// compilation, which has one kind map, so a leaf's kind stays out of
// its key there; the memo-key hash folds it in (leafKind).
type nodeKey struct {
	tag  uint8
	op   uint8
	kind types.Kind
	kids [3]int32 // child ids, 0 where the node has fewer
	bits uint64
	text string
}

// shape takes a node apart for the interner and the memo-key hash
// alike: what identifies it besides its children (in a nodeKey whose
// child ids are still unset) and the children in order, nil past the
// node's arity. ok is false for a node type the compiler does not know.
func shape(e expr.Expr) (k nodeKey, kids [3]expr.Expr, ok bool) {
	switch x := e.(type) {
	case *expr.Const:
		k.tag = tagConst
		k.kind, k.bits, k.text = constBits(x.V)
	case *expr.Col:
		k.tag, k.text = tagCol, x.Name
	case *expr.Var:
		k.tag, k.text = tagVar, x.Name
	case *expr.Param:
		k.tag, k.text = tagParam, x.Name
	case *expr.Arith:
		k.tag, k.op, kids[0], kids[1] = tagArith, uint8(x.Op), x.L, x.R
	case *expr.Cmp:
		k.tag, k.op, kids[0], kids[1] = tagCmp, uint8(x.Op), x.L, x.R
	case *expr.And:
		k.tag, kids[0], kids[1] = tagAnd, x.L, x.R
	case *expr.Or:
		k.tag, kids[0], kids[1] = tagOr, x.L, x.R
	case *expr.Not:
		k.tag, kids[0] = tagNot, x.E
	case *expr.IsNull:
		k.tag, kids[0] = tagIsNull, x.E
	case *expr.If:
		k.tag, kids[0], kids[1], kids[2] = tagIf, x.Cond, x.Then, x.Else
	default:
		return k, kids, false
	}
	return k, kids, true
}

// interner numbers the structurally distinct subexpressions of one
// compilation, so the compiler's hash-consing caches key on a small
// integer. Every node is looked at once: a node seen before is found by
// its address, a new node by the key built from its children's ids.
// That is O(nodes) where keying on renderings re-rendered each subtree
// at every level above it, and two different subexpressions can never
// share an id.
type interner struct {
	byPtr layer[expr.Expr, int32] // sized by the first expression interned
	byKey layer[nodeKey, int32]
	next  int32
}

// above returns an interner that numbers on from in's state without
// writing to it (see compiler.above); nodes sizes its own tables.
func (in *interner) above(nodes int) *interner {
	return &interner{
		byPtr: in.byPtr.above(nodes),
		byKey: in.byKey.above(nodes),
		next:  in.next,
	}
}

// fresh hands out the next unused id (ids start at 1; 0 means "no
// child" in a nodeKey).
func (in *interner) fresh() int32 {
	in.next++
	return in.next
}

// id returns the number of e's structure. A node of a type the
// compiler does not know gets an id of its own each time: lowering
// rejects it anyway, and nothing may merge with it before that (nor is
// its dynamic type known to be hashable, so it stays out of byPtr).
func (in *interner) id(e expr.Expr) int32 {
	k, kids, ok := shape(e)
	if !ok {
		return in.fresh()
	}
	if in.byPtr.own == nil {
		// The first expression is the formula's root: room for all of
		// its nodes saves growing both maps step by step.
		n := expr.Size(e)
		in.byPtr.own, in.byKey.own = make(map[expr.Expr]int32, n), make(map[nodeKey]int32, n)
	}
	if id, ok := in.byPtr.get(e); ok {
		return id
	}
	for i, kid := range kids {
		if kid != nil {
			k.kids[i] = in.id(kid)
		}
	}
	id, ok := in.byKey.get(k)
	if !ok {
		id = in.fresh()
		in.byKey.put(k, id)
	}
	in.byPtr.put(e, id)
	return id
}

// memoKey identifies one satisfiability query in a Memo: 128 bits of a
// keyed hash over the condition's structure, the kinds of the variables
// and $params it names, and the solver budget (see queryKey). The same
// two lanes also carry the structural digest of a single expression
// (see nodeDigest).
type memoKey struct{ hi, lo uint64 }

// The two lanes of a memoKey are hash/maphash under independent seeds
// drawn once per process, so a key is meaningful only inside the
// process that made it — which is as far as a Memo reaches.
var memoSeedHi, memoSeedLo = maphash.MakeSeed(), maphash.MakeSeed()

// keyHasher streams one record into both lanes. Every field is written
// at a fixed width or behind its length, so the byte sequence
// determines the record.
type keyHasher struct{ hi, lo maphash.Hash }

func (h *keyHasher) init() {
	h.hi.SetSeed(memoSeedHi)
	h.lo.SetSeed(memoSeedLo)
}

func (h *keyHasher) sum() memoKey { return memoKey{hi: h.hi.Sum64(), lo: h.lo.Sum64()} }

func (h *keyHasher) byte(b uint8) {
	_ = h.hi.WriteByte(b) // maphash writes never fail
	_ = h.lo.WriteByte(b)
}

func (h *keyHasher) word(w uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(w >> (8 * i))
	}
	_, _ = h.hi.Write(buf[:])
	_, _ = h.lo.Write(buf[:])
}

func (h *keyHasher) text(s string) {
	h.word(uint64(len(s)))
	_, _ = h.hi.WriteString(s)
	_, _ = h.lo.WriteString(s)
}

// nodeDigest is the structural digest of e under the kind map kinds: a
// keyed hash of the node's own fields (see shape) and its children's
// digests. Equal structure gives equal digests whatever the addresses,
// and the digest of l ∧ r follows from those of l and r (andDigest), so
// a shared leading conjunct is hashed once however many formulas extend
// it (Prefix). A variable or $param leaf also carries the kind lowering
// resolves for it (see leafKind), so the digest covers exactly the
// kinds the formula's lowering reads: an entry of kinds that e does not
// name leaves it unchanged.
func nodeDigest(e expr.Expr, kinds map[string]types.Kind) memoKey {
	k, kids, ok := shape(e)
	if !ok {
		// Unknown node: the concrete type goes in beside the rendering,
		// so two node types that render alike cannot share a key (which
		// would silently reuse the wrong solver outcome).
		var h keyHasher
		h.init()
		h.byte(tagUnknown)
		h.text(fmt.Sprintf("%T", e))
		h.text(e.String())
		return h.sum()
	}
	leafKind(&k, kinds)
	var kd [3]memoKey
	n := 0
	for _, kid := range kids {
		if kid != nil {
			kd[n] = nodeDigest(kid, kinds)
			n++
		}
	}
	return digest(k, kd[:n])
}

// leafKind folds into a variable or $param leaf's key what lowering
// looks up for it (sourceVar, compileBool): whether kinds holds its
// name — a $param's under "$name" — in op, and the kind held. Lowering
// treats an absent name as a float in value position and rejects it in
// condition position, so absent and present stay apart.
func leafKind(k *nodeKey, kinds map[string]types.Kind) {
	name := k.text
	switch k.tag {
	case tagVar:
	case tagParam:
		name = "$" + name
	default:
		return
	}
	if kind, ok := kinds[name]; ok {
		k.op, k.kind = 1, kind
	}
}

// andDigest is nodeDigest of a conjunction whose operands have digests
// l and r.
func andDigest(l, r memoKey) memoKey { return digest(nodeKey{tag: tagAnd}, []memoKey{l, r}) }

// digest hashes one node from its own fields and its children's
// digests; the tag decides how many children follow.
func digest(k nodeKey, kids []memoKey) memoKey {
	var h keyHasher
	h.init()
	h.byte(k.tag)
	h.byte(k.op)
	h.byte(uint8(k.kind))
	h.word(k.bits)
	h.text(k.text)
	for _, d := range kids {
		h.word(d.hi)
		h.word(d.lo)
	}
	return h.sum()
}

// envDigest hashes what besides the condition and its kinds can change
// a verdict: the solver budget.
func envDigest(opts Options) memoKey {
	var h keyHasher
	h.init()
	h.word(uint64(opts.Solve.MaxNodes))
	h.word(uint64(opts.Solve.MaxIter))
	return h.sum()
}

// queryKey is the memo key of a condition with structural digest cond
// under the environment digest env.
func queryKey(cond, env memoKey) memoKey {
	var h keyHasher
	h.init()
	h.word(cond.hi)
	h.word(cond.lo)
	h.word(env.hi)
	h.word(env.lo)
	return h.sum()
}
