package compile

import "github.com/mahif/mahif/internal/lru"

// Memo is a concurrency-safe LRU of satisfiability outcomes. The
// slicing formulas the engine compiles are deterministic functions of
// the history suffix and the modification under test, so a query's key
// — 128 bits over the simplified condition's structure, the kind of
// each variable and $param it names, and the solver budget (see
// queryKey) — identifies the compiled program: two what-if scenarios
// that share a suffix and a modification produce equal keys and reuse
// one solver run. Kinds enter at the leaves that name them (see
// nodeDigest), not as a digest of the whole kind map: a history's kind
// map gains the fresh variables of every appended statement, and a
// check that does not mention them keeps its key across the append.
// The structural part is a Merkle-style digest, so a Prefix keys each
// check by its own conjuncts on top of the prefix's digest and still
// arrives at the key of the whole formula, whichever object or split
// asked it. Batch evaluation threads one Memo through Options.Memo for
// all scenarios.
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
