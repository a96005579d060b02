package exec

import (
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/mahif/mahif/internal/expr"
	"github.com/mahif/mahif/internal/schema"
	"github.com/mahif/mahif/internal/storage"
	"github.com/mahif/mahif/internal/types"
)

// PairRoute is how RunPairCtx answered a pair of programs: by one scan
// that ran both, or by none, for one of the reasons below. Each
// reason's caller runs the two programs one after the other instead.
type PairRoute int

const (
	// Paired: both programs ran in one scan, and only the rows that
	// differ at their position were kept.
	Paired PairRoute = iota
	// PairShape: a program is not one scan through a fused σ/Π chain,
	// of the relation the other scans under the same options (a
	// reenacted INSERT adds a union, a report a γ).
	PairShape
	// PairMisaligned: the two programs kept different numbers of rows
	// of one source batch (a DELETE, or a data-slicing σ on one side
	// only), so their positions no longer line up.
	PairMisaligned
)

// Residual is what a pair run keeps of its two results: the rows of
// each that are not Equal to the other's row at their position, in
// position order, and how many positions were compared — what
// delta.ComputeResidual finishes a delta from. Its views come from a
// pool the caller hands them back to (Release).
type Residual struct {
	Old, New *storage.ColumnarView
	Compared int
}

// residualViews recycles the views pair runs write their residual
// rows into: a partition's, and the one a partitioned run joins them
// into. A view keeps its lanes' arrays (ColumnarView.Reset), so a
// steady stream of what-ifs writes its residuals into arrays it
// allocated once.
var residualViews sync.Pool

// residualView is an empty view of schema s from the pool, with room
// reserved for rows rows.
func residualView(s *schema.Schema, rows int) *storage.ColumnarView {
	v, ok := residualViews.Get().(*storage.ColumnarView)
	if !ok {
		v = &storage.ColumnarView{}
	}
	v.Reset(s, rows)
	return v
}

// putResidualView empties v and puts it back into the pool.
func putResidualView(v *storage.ColumnarView) {
	v.Reset(v.Schema, 0)
	residualViews.Put(v)
}

// Release hands the residual's views back to the pool the pair run
// took them from, once delta.ComputeResidual has returned: the Minus
// and Plus it gathers hold cells of their own. Nothing may read the
// views afterwards.
func (r *Residual) Release() {
	putResidualView(r.Old)
	putResidualView(r.New)
	r.Old, r.New = nil, nil
}

// RunPairCtx answers the delta's mark step for orig and mod, the two
// reenactment programs of one relation, without keeping either result.
// When each is one scan of the same relation through its fused σ/Π
// chain, it drives both chains over the same windows of the relation's
// columnar view — a frozen relation's shared view, or a private one's
// rows transposed once for both — batch by batch, in the partitions a
// run of either alone would use. When both chains begin with the same
// σ — a what-if's data-slicing filter, which Eq. 7 makes the same on
// both sides — it runs once per batch, and each chain goes on from its
// own copy of the selection. A batch's live rows are compared position
// by position with storage.MarkUnequal, and only the rows that differ
// are copied, once, into the partition's residual lanes (pooled, see
// Residual.Release).
//
// That is exact when every batch keeps as many live rows on one side
// as on the other: the k-th live row of a batch is then at the same
// position of both results, so the rows kept are the residual
// delta.ComputeColumnar would find in RunColumnarCtx's two views. A
// batch that breaks this stops the run with PairMisaligned; a shape
// outside the class is PairShape.
// Errors are those of running orig, then mod, each alone: orig's first
// error in partition order wins, then mod's; an error of a σ both run
// is orig's. Where a misaligned partition comes before either, which
// error that is is not known, and the route is PairMisaligned. A
// non-nil Residual comes with Paired.
func RunPairCtx(ctx context.Context, orig, mod *Program, db *storage.Database) (*Residual, PairRoute, error) {
	on, ok1 := orig.root.(*vpipeNode)
	mn, ok2 := mod.root.(*vpipeNode)
	if !ok1 || !ok2 || !strings.EqualFold(on.rel, mn.rel) || on.arity != mn.arity || on.cfg != mn.cfg || orig.out.Arity() != mod.out.Arity() {
		return nil, PairShape, nil
	}
	r, err := on.relation(db)
	if err != nil {
		return nil, Paired, err
	}
	view, err := columnar(r)
	if err != nil {
		return nil, Paired, err
	}
	// The modified program's scan asks for a frozen relation's view too,
	// as it does when it runs alone: the view's hits count scans.
	r.SharedColumnar()
	pr := &pairRun{
		orig: orig, mod: mod, on: on, mn: mn,
		orc: orig.newRun(ctx, db, nil), mrc: mod.newRun(ctx, db, nil),
		view: view,
	}
	if of, ok := leadingFilter(on.ch); ok {
		mf, ok := leadingFilter(mn.ch)
		pr.sharedFilter = ok && expr.Equal(of.where, mf.where)
	}
	bounds := on.bounds(0, view.Rows)
	out := make([]pairPart, len(bounds)-1)
	pr.misaligned.Store(int64(len(out)))
	if len(out) == 1 {
		pr.runPart(0, 0, view.Rows, &out[0])
	} else {
		var wg sync.WaitGroup
		for w := range out {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pr.runPart(w, bounds[w], bounds[w+1], &out[w])
			}(w)
		}
		wg.Wait()
	}
	for i := range out {
		switch p := &out[i]; {
		case p.origErr != nil:
			return nil, Paired, p.origErr
		case p.abandoned:
			return nil, PairMisaligned, nil
		}
	}
	res := &Residual{}
	olds, news := make([]*storage.ColumnarView, len(out)), make([]*storage.ColumnarView, len(out))
	for i := range out {
		p := &out[i]
		if p.modErr != nil {
			return nil, Paired, p.modErr
		}
		olds[i], news[i] = p.old, p.new
		res.Compared += p.compared
	}
	// Each side's residual rows, partition after partition: a single
	// partition's view as it is, else one view from the pool they are
	// copied into, the partitions' going back.
	res.Old = joinParts(olds, func(rows int) *storage.ColumnarView { return residualView(orig.out, rows) })
	res.New = joinParts(news, func(rows int) *storage.ColumnarView { return residualView(mod.out, rows) })
	if len(out) > 1 {
		for i := range out {
			putResidualView(olds[i])
			putResidualView(news[i])
		}
	}
	return res, Paired, nil
}

// leadingFilter is the σ a chain begins with, if it begins with one.
func leadingFilter(c chain) (vFilterOp, bool) {
	if len(c.ops) == 0 {
		return vFilterOp{}, false
	}
	f, ok := c.ops[0].(vFilterOp)
	return f, ok
}

// pairRun is one RunPairCtx call's state, shared by its partitions.
type pairRun struct {
	orig, mod *Program
	on, mn    *vpipeNode // their roots
	orc, mrc  *runCtx
	view      *storage.ColumnarView
	// sharedFilter: both chains begin with the same σ, which the pair
	// runs once per batch for both.
	sharedFilter bool
	// misaligned is the first partition, in partition order, known to
	// misalign. The partitions after it stop at their next batch: the
	// pair falls back unless a partition before it finds an error of the
	// original side, which those go on to look for.
	misaligned atomic.Int64
}

// misalign records that partition w misaligned.
func (pr *pairRun) misalign(w int) {
	for {
		first := pr.misaligned.Load()
		if first <= int64(w) || pr.misaligned.CompareAndSwap(first, int64(w)) {
			return
		}
	}
}

// pairPart is what one partition of a pair run found.
type pairPart struct {
	old, new *storage.ColumnarView // the rows that differ, pooled
	compared int
	// origErr and modErr are each side's first error in the partition.
	// After modErr, only the original side runs on: its error would
	// still win.
	origErr, modErr error
	// abandoned: the partition stopped before the original side had run
	// every batch, because it or a partition before it misaligned.
	abandoned bool
}

// runPart runs rows [lo, hi) of the view, partition w, through both
// chains, a batch at a time, into out. Each side has its own source
// batch over the same windows: a filter narrows its batch's selection
// in place. A σ both chains begin with runs on the original side's
// batch, and the modified side's starts from a copy of the selection
// it leaves, in the buffer of that side's own σ, which does not run.
func (pr *pairRun) runPart(w, lo, hi int, out *pairPart) {
	ocr := pr.on.ch.getRun(&pr.on.runs, pr.on.cfg, pr.orc)
	mcr := pr.mn.ch.getRun(&pr.mn.runs, pr.mn.cfg, pr.mrc)
	defer func() {
		// A run goes back to its pool without the view's windows.
		ocr.release()
		mcr.release()
		pr.on.runs.Put(ocr)
		pr.mn.runs.Put(mcr)
	}()
	width, bs := len(pr.view.Cols), pr.on.cfg.bs
	osrc, msrc := ocr.sharedBatch(width), mcr.sharedBatch(width)
	out.old, out.new = residualView(pr.orig.out, 0), residualView(pr.mod.out, 0)
	d := &pairDiff{neq: make([]bool, bs), oldRows: make([]int, 0, bs), newRows: make([]int, 0, bs)}
	from := 0
	if pr.sharedFilter {
		from = 1
	}
	for start := lo; start < hi; start += bs {
		if pr.misaligned.Load() < int64(w) {
			out.abandoned = true
			return
		}
		if err := pr.orc.ctx.Err(); err != nil {
			out.origErr = err
			return
		}
		end := min(start+bs, hi)
		pr.view.Window(osrc.cols, start, end)
		copy(msrc.cols, osrc.cols)
		osrc.n, osrc.sel = end-start, nil
		msrc.n, msrc.sel = end-start, nil
		if pr.sharedFilter {
			if _, err := ocr.states[0].apply(ocr.pool, osrc); err != nil {
				out.origErr = err
				return
			}
			msrc.sel = append(mcr.states[0].(*vFilterState).selBuf[:0], osrc.sel...)
		}
		ob, err := ocr.apply(osrc, from)
		if err != nil {
			out.origErr = err
			return
		}
		if out.modErr != nil {
			continue
		}
		mb, err := mcr.apply(msrc, from)
		if err != nil {
			out.modErr = err
			continue
		}
		if ob.live() != mb.live() {
			out.abandoned = true
			pr.misalign(w)
			return
		}
		d.keep(pr, ob, mb, out)
	}
}

// pairDiff is a partition's scratch for comparing its batches.
type pairDiff struct {
	neq              []bool
	oldRows, newRows []int
}

// keep compares the live rows of ob and mb, which are as many, position
// by position, and appends the ones that differ to out's residual
// views.
func (d *pairDiff) keep(pr *pairRun, ob, mb *batch, out *pairPart) {
	live := ob.live()
	if live == 0 {
		return
	}
	out.compared += live
	arity := pr.orig.out.Arity()
	neq := d.neq[:live]
	clear(neq)
	same := sameRows(ob.sel, mb.sel)
	for c := 0; c < arity; c++ {
		if same && sameCells(&ob.cols[c], &mb.cols[c]) {
			continue
		}
		storage.MarkUnequal(neq, &ob.cols[c], ob.sel, &mb.cols[c], mb.sel)
	}
	d.oldRows, d.newRows = d.oldRows[:0], d.newRows[:0]
	for k, differs := range neq {
		if differs {
			d.oldRows = append(d.oldRows, liveRow(ob.sel, k))
			d.newRows = append(d.newRows, liveRow(mb.sel, k))
		}
	}
	out.old.AppendRows(ob.cols[:arity], d.oldRows, ob.n)
	out.new.AppendRows(mb.cols[:arity], d.newRows, mb.n)
}

// sameRows reports whether two selections list the same rows.
func sameRows(a, b []int) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return slices.Equal(a, b)
}

// sameCells reports whether two columns read the same cells of one int
// or string lane, masks included — a column neither side's chain wrote,
// aliasing the source window on both — so that, read at the same rows,
// they are Equal everywhere. A float lane is compared all the same: NaN
// is not Equal to itself.
func sameCells(a, b *storage.ColVec) bool {
	switch {
	case a.Kind != b.Kind || (a.Nulls == nil) != (b.Nulls == nil):
		return false
	case a.Nulls != nil && !sameArray(a.Nulls, b.Nulls):
		return false
	case a.Kind == types.KindInt:
		return sameArray(a.Ints, b.Ints)
	case a.Kind == types.KindString:
		return sameArray(a.Strs, b.Strs)
	}
	return false
}
