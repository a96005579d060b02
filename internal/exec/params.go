package exec

import (
	"fmt"

	"github.com/mahif/mahif/internal/types"
)

// Template parameters. A $name slot (expr.Param) compiles wherever a
// constant does: the compiler numbers the program's distinct slots, and
// each run resolves its binding once into a parameter vector in slot
// order that travels with the run (runCtx, then every vecPool the run
// draws), never with the Program. One Program therefore answers any
// number of bindings, concurrently.
//
// Three kernels specialize on a constant's value: the column-vs-constant
// comparison (every leg of a conjunction or disjunction included), the
// typed IF's THEN and the column∘constant arithmetic. At a param site
// each keeps its value-independent part (column ordinal, truth table,
// orientation, the generic fallback) from compile time, and the
// compiler records the site's builder: the value-dependent part made
// from the bound values with the same builder a literal is compiled
// with. Each run calls every builder once (Program.newRun) and hands
// the kernels to its pools beside the parameter vector. A run therefore
// picks, site by site, exactly the kernel CompileVec would pick for the
// query with the binding substituted — NULL, an int where a float was
// or a string included, down to the generic one.

// compiler is one CompileVec or CompileTupleKernel call's state: the
// parameter slots its expressions name and the builders of its param
// sites.
type compiler struct {
	cfg   vecConfig
	slots map[string]int
	names []string          // slot → parameter name
	sites []func([]arg) any // site → builder of its per-run kernel
}

// slot returns the parameter's slot, numbering it on first sight.
func (c *compiler) slot(name string) int {
	if i, ok := c.slots[name]; ok {
		return i
	}
	if c.slots == nil {
		c.slots = map[string]int{}
	}
	c.slots[name] = len(c.names)
	c.names = append(c.names, name)
	return len(c.names) - 1
}

// site numbers a new param site whose per-run kernel build makes from
// the run's parameter vector.
func (c *compiler) site(build func(args []arg) any) int {
	c.sites = append(c.sites, build)
	return len(c.sites) - 1
}

// arg is one parameter slot's value in a run; ok is false when the run
// binds no value to it.
type arg struct {
	v  types.Value
	ok bool
}

// args resolves a binding into the parameter vector of slots names (nil
// when there are no slots). Names the binding lacks stay unbound; names
// the slots lack are ignored.
func args(names []string, binding map[string]types.Value) []arg {
	if len(names) == 0 {
		return nil
	}
	out := make([]arg, len(names))
	for i, name := range names {
		out[i].v, out[i].ok = binding[name]
	}
	return out
}

// argAt returns the vector's value for a slot; ok is false when the run
// binds none.
func argAt(args []arg, slot int) (types.Value, bool) {
	if slot < len(args) {
		return args[slot].v, args[slot].ok
	}
	return types.Value{}, false
}

// buildSites makes every param site's kernel for one run's parameter
// vector (nil when there are no sites). The kernels are immutable, so
// all of a run's pools, parallel workers included, share them.
func buildSites(builds []func([]arg) any, args []arg) []any {
	if len(builds) == 0 {
		return nil
	}
	out := make([]any, len(builds))
	for i, build := range builds {
		out[i] = build(args)
	}
	return out
}

// errUnbound is what evaluating a parameter no value is bound to
// reports: like the interpreter, only once a row reaches it.
func errUnbound(name string) error {
	return fmt.Errorf("exec: parameter $%s is not bound", name)
}

// boundCond is a param site at the truth level: the kernel build
// returns for the run's binding, or generic when it returns nil.
func (c *compiler) boundCond(build func(args []arg) vecCondFn, generic vecCondFn) vecCondFn {
	site := c.site(func(args []arg) any { return build(args) })
	return func(p *vecPool, b *batch, sel []int, out []truth) error {
		if fn, _ := p.sites[site].(vecCondFn); fn != nil {
			return fn(p, b, sel, out)
		}
		return generic(p, b, sel, out)
	}
}

// boundScalar is boundCond for scalar kernels.
func (c *compiler) boundScalar(build func(args []arg) vecScalarFn, generic vecScalarFn) vecScalarFn {
	site := c.site(func(args []arg) any { return build(args) })
	return func(p *vecPool, b *batch, sel []int, out []types.Value) error {
		if fn, _ := p.sites[site].(vecScalarFn); fn != nil {
			return fn(p, b, sel, out)
		}
		return generic(p, b, sel, out)
	}
}
