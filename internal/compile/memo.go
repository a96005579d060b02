package compile

import (
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/lru"
)

// Memo is a concurrency-safe LRU of satisfiability outcomes. The
// slicing formulas the engine compiles are deterministic functions of
// the history suffix and the modification under test, so a query's key
// — 128 bits over the simplified condition's structure, the variable
// kinds and the solver budget (see queryKey) — identifies the compiled
// program: two what-if scenarios that share a suffix and a modification
// produce equal keys and reuse one solver run. The structural part is a
// Merkle-style digest, so a Prefix keys each check by its own
// conjuncts on top of the prefix's digest and still arrives at the key
// of the whole formula, whichever object or split asked it. Batch
// evaluation threads one Memo through Options.Memo for all scenarios.
//
// Cached *Outcome values are shared; callers must treat them (including
// the Model witness map) as read-only, which every engine call site
// already does.
type Memo = lru.Cache[memoKey, *Outcome]

// DefaultMemoEntries bounds a memo built by NewMemo. Outcomes are
// small (a verdict plus a witness map), so the bound exists to keep a
// session-lifetime memo from growing with the number of distinct
// formulas ever seen, not to fight memory pressure; eviction is LRU.
const DefaultMemoEntries = 4096

// NewMemo builds an empty memo bounded at DefaultMemoEntries.
func NewMemo() *Memo { return NewMemoCap(DefaultMemoEntries) }

// NewMemoCap builds an empty memo holding at most cap outcomes
// (cap <= 0 means unbounded).
func NewMemoCap(cap int) *Memo { return lru.New[memoKey, *Outcome](cap) }

// fingerprintExpr serializes e with explicit node tags (a plain String
// rendering cannot distinguish a column from a variable of the same
// name).
func fingerprintExpr(b *strings.Builder, e expr.Expr) {
	switch x := e.(type) {
	case *expr.Const:
		b.WriteString("k(")
		b.WriteString(x.V.String())
		b.WriteByte(')')
	case *expr.Col:
		b.WriteString("c(")
		b.WriteString(x.Name)
		b.WriteByte(')')
	case *expr.Var:
		b.WriteString("v(")
		b.WriteString(x.Name)
		b.WriteByte(')')
	case *expr.Param:
		b.WriteString("P(")
		b.WriteString(x.Name)
		b.WriteByte(')')
	case *expr.Arith:
		fmt.Fprintf(b, "a%d(", x.Op)
		fingerprintExpr(b, x.L)
		b.WriteByte(',')
		fingerprintExpr(b, x.R)
		b.WriteByte(')')
	case *expr.Cmp:
		fmt.Fprintf(b, "p%d(", x.Op)
		fingerprintExpr(b, x.L)
		b.WriteByte(',')
		fingerprintExpr(b, x.R)
		b.WriteByte(')')
	case *expr.And:
		b.WriteString("and(")
		fingerprintExpr(b, x.L)
		b.WriteByte(',')
		fingerprintExpr(b, x.R)
		b.WriteByte(')')
	case *expr.Or:
		b.WriteString("or(")
		fingerprintExpr(b, x.L)
		b.WriteByte(',')
		fingerprintExpr(b, x.R)
		b.WriteByte(')')
	case *expr.Not:
		b.WriteString("not(")
		fingerprintExpr(b, x.E)
		b.WriteByte(')')
	case *expr.IsNull:
		b.WriteString("isnull(")
		fingerprintExpr(b, x.E)
		b.WriteByte(')')
	case *expr.If:
		b.WriteString("if(")
		fingerprintExpr(b, x.Cond)
		b.WriteByte(',')
		fingerprintExpr(b, x.Then)
		b.WriteByte(',')
		fingerprintExpr(b, x.Else)
		b.WriteByte(')')
	default:
		// Unknown node: tag with the concrete type so two distinct node
		// types whose String() renderings coincide cannot share a key.
		fmt.Fprintf(b, "?%T(%s)", e, e)
	}
}

// FingerprintExpr returns the canonical tagged serialization of e (the
// solver memo hashes the same structure instead, see nodeDigest).
// Constants embed their values, so fingerprinting a template condition
// (parameters still open as $name slots) yields the constant-abstracted
// identity the template cache keys on: two templates equal up to
// parameter names bound at eval time collide, two templates differing
// in any baked-in constant do not.
func FingerprintExpr(e expr.Expr) string {
	var b strings.Builder
	fingerprintExpr(&b, e)
	return b.String()
}
