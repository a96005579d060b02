package algebra

import (
	"strings"
)

// Fingerprint returns a canonical rendering of q that identifies it in
// a cache key (a report's historical γ state, a template). Unlike
// String, which rebuilds child renderings at every level (quadratic in
// nesting depth, and reenactment queries nest one level per statement),
// Fingerprint streams the tree in a single O(nodes) walk. Conditions and
// projection expressions are rendered with their (shallow) String
// forms; structural node tags keep distinct operators distinct.
func Fingerprint(q Query) string {
	var b strings.Builder
	writeFingerprint(&b, q)
	return b.String()
}

func writeFingerprint(b *strings.Builder, q Query) {
	switch x := q.(type) {
	case *Scan:
		b.WriteString("scan(")
		b.WriteString(x.Rel)
		b.WriteByte(')')
	case *Select:
		b.WriteString("sel[")
		b.WriteString(x.Cond.String())
		b.WriteString("](")
		writeFingerprint(b, x.In)
		b.WriteByte(')')
	case *Project:
		b.WriteString("proj[")
		for i, ne := range x.Exprs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ne.Name)
			b.WriteByte('=')
			b.WriteString(ne.E.String())
		}
		b.WriteString("](")
		writeFingerprint(b, x.In)
		b.WriteByte(')')
	case *Union:
		b.WriteString("union(")
		writeFingerprint(b, x.L)
		b.WriteByte(',')
		writeFingerprint(b, x.R)
		b.WriteByte(')')
	case *Join:
		b.WriteString("join[")
		b.WriteString(x.Cond.String())
		b.WriteString("](")
		writeFingerprint(b, x.L)
		b.WriteByte(',')
		writeFingerprint(b, x.R)
		b.WriteByte(')')
	case *Aggregate:
		b.WriteString("agg[")
		for i, ne := range x.GroupBy {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(ne.Name)
			b.WriteByte('=')
			b.WriteString(ne.E.String())
		}
		b.WriteByte(';')
		for i, a := range x.Aggs {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.Name)
			b.WriteByte('=')
			b.WriteString(a.CallString())
		}
		b.WriteString("](")
		writeFingerprint(b, x.In)
		b.WriteByte(')')
	case *Singleton:
		b.WriteString("single[")
		b.WriteString(x.Sch.String())
		b.WriteString("](")
		for i, t := range x.Tuples {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(t.String())
		}
		b.WriteByte(')')
	default:
		// Unknown node: fall back to the full rendering; worst case is
		// a slower or missed cache reuse, never a wrong answer.
		b.WriteString(q.String())
	}
}
