package algebra

import (
	"strings"
	"testing"

	"github.com/mahif/mahif/internal/expr"
)

func TestFingerprintDistinguishesStructure(t *testing.T) {
	scan := &Scan{Rel: "orders"}
	selA := &Select{Cond: expr.Ge(expr.Column("price"), expr.IntConst(50)), In: scan}
	selB := &Select{Cond: expr.Ge(expr.Column("price"), expr.IntConst(60)), In: scan}
	if Fingerprint(selA) == Fingerprint(selB) {
		t.Error("different conditions share a fingerprint")
	}
	if Fingerprint(selA) != Fingerprint(&Select{Cond: expr.Ge(expr.Column("price"), expr.IntConst(50)), In: &Scan{Rel: "orders"}}) {
		t.Error("structurally equal queries got different fingerprints")
	}
	if Fingerprint(&Union{L: selA, R: selB}) == Fingerprint(&Union{L: selB, R: selA}) {
		t.Error("operand order is not reflected")
	}
}

// TestFingerprintLinear pins the linearity property: a deeply nested
// query must fingerprint in output proportional to the tree, not
// depth × subtree as String does.
func TestFingerprintLinear(t *testing.T) {
	var q Query = &Scan{Rel: "t"}
	cond := expr.Ge(expr.Column("a"), expr.IntConst(1))
	for i := 0; i < 200; i++ {
		q = &Select{Cond: cond, In: q}
	}
	fp := Fingerprint(q)
	// Each level adds a constant-size frame around the child.
	perLevel := len("sel[a >= 1]()")
	if len(fp) > 220*perLevel {
		t.Errorf("fingerprint length %d suggests super-linear rendering", len(fp))
	}
	if !strings.HasSuffix(fp, strings.Repeat(")", 200)) {
		t.Error("nesting structure missing from fingerprint")
	}
}
