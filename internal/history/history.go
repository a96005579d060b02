package history

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/mahif/mahif/internal/storage"
)

// Sentinel errors for invalid what-if queries, surfaced (wrapped with
// position detail) by ApplyModifications and therefore by every engine
// entry point; test with errors.Is.
var (
	// ErrPosOutOfRange reports a modification position outside the
	// history: replace/delete need 0 ≤ pos < len, insert 0 ≤ pos ≤ len.
	ErrPosOutOfRange = errors.New("modification position out of range")
	// ErrEmptyHistory reports a replace or delete against an empty
	// history (no statement exists to modify).
	ErrEmptyHistory = errors.New("history is empty")
)

// History is a sequence of statements H = u1, …, un.
type History []Statement

// Apply executes the history over db in order (the semantics
// D_i = u_i(D_{i-1}) of §2). Statements rewrite db's tuples in place,
// so the caller must own them privately (see storage.Mutator).
func (h History) Apply(db *storage.Database) error {
	return h.ApplyCtx(context.Background(), db)
}

// ApplyCtx is Apply under a context, checked between statements.
func (h History) ApplyCtx(ctx context.Context, db *storage.Database) error {
	for i, st := range h {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := st.Apply(db); err != nil {
			return fmt.Errorf("history: statement %d (%s): %w", i+1, st, err)
		}
	}
	return nil
}

// Restrict returns H_I: the subsequence at the given zero-based
// positions (positions must be ascending).
func (h History) Restrict(positions []int) History {
	out := make(History, 0, len(positions))
	for _, p := range positions {
		out = append(out, h[p])
	}
	return out
}

// Suffix returns H_{from+1,n} (zero-based: statements from index
// `from` onward).
func (h History) Suffix(from int) History { return h[from:] }

// Relations returns the set of relation names modified by the history.
func (h History) Relations() map[string]bool {
	out := map[string]bool{}
	for _, st := range h {
		out[strings.ToLower(st.Table())] = true
	}
	return out
}

// OnRelation returns the zero-based positions of statements that modify
// rel.
func (h History) OnRelation(rel string) []int {
	var out []int
	for i, st := range h {
		if strings.EqualFold(st.Table(), rel) {
			out = append(out, i)
		}
	}
	return out
}

// TupleIndependent reports whether every statement is tuple independent.
func (h History) TupleIndependent() bool {
	for _, st := range h {
		if !st.TupleIndependent() {
			return false
		}
	}
	return true
}

// String renders the history one statement per line.
func (h History) String() string {
	var b strings.Builder
	for i, st := range h {
		fmt.Fprintf(&b, "%3d: %s\n", i+1, st)
	}
	return b.String()
}

// Modification is one element of the modification sequence M of a
// historical what-if query (§3): replace a statement, insert a new
// statement, or delete an existing one. Positions are zero-based and
// interpreted against the history as already modified by the preceding
// modifications in the sequence.
type Modification interface {
	String() string
	isModification()
}

// Replace substitutes the statement at Pos with Stmt (u ← u').
type Replace struct {
	Pos  int
	Stmt Statement
}

// InsertStmt inserts Stmt so that it executes at position Pos
// (ins_i(u)).
type InsertStmt struct {
	Pos  int
	Stmt Statement
}

// DeleteStmt removes the statement at Pos (del(i)).
type DeleteStmt struct {
	Pos int
}

func (Replace) isModification()    {}
func (InsertStmt) isModification() {}
func (DeleteStmt) isModification() {}

func (m Replace) String() string    { return fmt.Sprintf("replace %d with [%s]", m.Pos+1, m.Stmt) }
func (m InsertStmt) String() string { return fmt.Sprintf("insert [%s] at %d", m.Stmt, m.Pos+1) }
func (m DeleteStmt) String() string { return fmt.Sprintf("delete %d", m.Pos+1) }

// PaddedPair aligns the original and modified histories position by
// position after the no-op rewrite of §6: both histories have the same
// length, statements at unmodified positions are identical, and every
// modification is a same-class replacement. This normal form is what
// data slicing and program slicing operate on.
type PaddedPair struct {
	Orig History
	Mod  History
	// ModifiedPos lists the positions where Orig and Mod differ,
	// ascending.
	ModifiedPos []int
}

// ApplyModifications rewrites (H, M) into a PaddedPair. Statement
// insertion pads the original history with a same-class no-op;
// statement deletion replaces the modified side with a no-op; replacing
// a statement with one of a different class is rewritten into
// delete+insert (two aligned positions) per §6.
func ApplyModifications(h History, mods []Modification) (*PaddedPair, error) {
	orig := make(History, len(h))
	copy(orig, h)
	mod := make(History, len(h))
	copy(mod, h)
	changed := map[int]bool{}

	insertAt := func(pos int, o, m Statement) error {
		if pos < 0 || pos > len(orig) {
			return fmt.Errorf("history: insert position %d out of range [0,%d]: %w", pos, len(orig), ErrPosOutOfRange)
		}
		orig = append(orig[:pos], append(History{o}, orig[pos:]...)...)
		mod = append(mod[:pos], append(History{m}, mod[pos:]...)...)
		shifted := map[int]bool{}
		for p := range changed {
			if p >= pos {
				shifted[p+1] = true
			} else {
				shifted[p] = true
			}
		}
		changed = shifted
		changed[pos] = true
		return nil
	}

	for _, m := range mods {
		switch x := m.(type) {
		case Replace:
			if len(mod) == 0 {
				return nil, fmt.Errorf("history: replace of statement %d: %w", x.Pos+1, ErrEmptyHistory)
			}
			if x.Pos < 0 || x.Pos >= len(mod) {
				return nil, fmt.Errorf("history: replace position %d out of range [0,%d): %w", x.Pos, len(mod), ErrPosOutOfRange)
			}
			if SameClass(orig[x.Pos], x.Stmt) {
				mod[x.Pos] = x.Stmt
				changed[x.Pos] = true
				break
			}
			// Cross-class replacement = delete original + insert new.
			mod[x.Pos] = NoOpFor(orig[x.Pos])
			changed[x.Pos] = true
			if err := insertAt(x.Pos+1, NoOpFor(x.Stmt), x.Stmt); err != nil {
				return nil, err
			}
		case InsertStmt:
			if err := insertAt(x.Pos, NoOpFor(x.Stmt), x.Stmt); err != nil {
				return nil, err
			}
		case DeleteStmt:
			if len(mod) == 0 {
				return nil, fmt.Errorf("history: delete of statement %d: %w", x.Pos+1, ErrEmptyHistory)
			}
			if x.Pos < 0 || x.Pos >= len(mod) {
				return nil, fmt.Errorf("history: delete position %d out of range [0,%d): %w", x.Pos, len(mod), ErrPosOutOfRange)
			}
			mod[x.Pos] = NoOpFor(orig[x.Pos])
			changed[x.Pos] = true
		default:
			return nil, fmt.Errorf("history: unknown modification %T", m)
		}
	}

	pp := &PaddedPair{Orig: orig, Mod: mod}
	for p := 0; p < len(orig); p++ {
		if changed[p] {
			pp.ModifiedPos = append(pp.ModifiedPos, p)
		}
	}
	if len(pp.ModifiedPos) == 0 {
		return nil, fmt.Errorf("history: modification sequence is empty or only touches nothing")
	}
	return pp, nil
}

// FirstModified returns the earliest modified position.
func (p *PaddedPair) FirstModified() int { return p.ModifiedPos[0] }

// SuffixFrom cuts both histories at position `from`, re-basing the
// modified positions. The prefix before the first modified statement is
// common to both histories, so (per §4's WLOG argument) evaluation can
// start from the database version at that point.
func (p *PaddedPair) SuffixFrom(from int) *PaddedPair {
	out := &PaddedPair{Orig: p.Orig.Suffix(from), Mod: p.Mod.Suffix(from)}
	for _, m := range p.ModifiedPos {
		if m >= from {
			out.ModifiedPos = append(out.ModifiedPos, m-from)
		}
	}
	return out
}

// RestrictToRelation keeps only statement positions touching rel,
// returning the aligned sub-histories and a map from new to original
// positions. Modified positions on other relations are dropped.
func (p *PaddedPair) RestrictToRelation(rel string) (*PaddedPair, []int) {
	positions := p.Orig.OnRelation(rel)
	modSet := map[int]bool{}
	for _, m := range p.ModifiedPos {
		modSet[m] = true
	}
	out := &PaddedPair{
		Orig: p.Orig.Restrict(positions),
		Mod:  p.Mod.Restrict(positions),
	}
	for newPos, origPos := range positions {
		if modSet[origPos] {
			out.ModifiedPos = append(out.ModifiedPos, newPos)
		}
	}
	return out, positions
}
