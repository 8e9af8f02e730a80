package core

import (
	"math/big"

	"bfbdd/internal/node"
)

// Exists computes ∃ cube . f: existential quantification of f over the
// variables of cube, which must be a positive cube (a conjunction of
// variables, as built by CubeRef). It runs one single-variable build per
// cube variable, deepest variable first.
func (k *Kernel) Exists(f, cube node.Ref) node.Ref { return k.quantify(opExists, f, cube) }

// Forall computes ∀ cube . f: universal quantification.
func (k *Kernel) Forall(f, cube node.Ref) node.Ref { return k.quantify(opForall, f, cube) }

// quantify folds the single-variable operation op over the cube's
// variables, deepest first. A variable above the current operand's top
// variable cannot occur in it and costs no build. Each step's result is
// the next step's operand, which that build pins, so no intermediate is
// left unprotected at the collection a build may run on entry.
func (k *Kernel) quantify(op Op, f, cube node.Ref) node.Ref {
	k.checkOpen()
	if !f.Valid() || !cube.Valid() {
		panic("core: quantification with invalid operand")
	}
	k.ensureReadable()
	var levels []int
	for !cube.IsTerminal() {
		nd := k.store.Node(cube)
		if !nd.Low.IsZero() {
			panic("core: quantification cube must be a positive cube")
		}
		levels = append(levels, cube.Level())
		cube = nd.High
	}
	if cube.IsZero() {
		panic("core: quantification cube must be a positive cube")
	}
	for i := len(levels) - 1; i >= 0 && f.Level() <= levels[i]; i-- {
		f = k.build(op, f, k.VarRef(levels[i]), node.Nil)
	}
	return f
}

// CubeRef builds the positive cube over the given levels (conjunction of
// the corresponding variables).
func (k *Kernel) CubeRef(levels []int) node.Ref {
	// Build bottom-up in decreasing precedence so each mkNode call has
	// already-canonical children.
	sorted := append([]int(nil), levels...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	r := node.One
	for i := len(sorted) - 1; i >= 0; i-- {
		if i+1 < len(sorted) && sorted[i] == sorted[i+1] {
			continue // duplicate level
		}
		r = k.MkNode(sorted[i], node.Zero, r)
	}
	return r
}

// Restrict computes f with the variable at level fixed to value, as one
// build whose second operand is the literal.
func (k *Kernel) Restrict(f node.Ref, level int, value bool) node.Ref {
	k.checkOpen()
	if !f.Valid() {
		panic("core: Restrict with invalid operand")
	}
	var lit node.Ref
	if value {
		lit = k.MkNode(level, node.Zero, node.One)
	} else {
		lit = k.MkNode(level, node.One, node.Zero)
	}
	return k.build(opRestrict, f, lit, node.Nil)
}

// ITE computes if-then-else: f ? g : h, as one ternary build.
func (k *Kernel) ITE(f, g, h node.Ref) node.Ref {
	k.checkOpen()
	if !f.Valid() || !g.Valid() || !h.Valid() {
		panic("core: ITE with invalid operand")
	}
	return k.build(opITE, f, g, h)
}

// Compose substitutes the function g for the variable at level in f: the
// identity Compose(f, x, g) = ITE(g, f|x=1, f|x=0), built in one ternary
// pass that becomes ITE at x's level (see composite.go).
func (k *Kernel) Compose(f node.Ref, level int, g node.Ref) node.Ref {
	k.checkOpen()
	if !f.Valid() || !g.Valid() {
		panic("core: Compose with invalid operand")
	}
	return k.build(opCompose, f, g, k.VarRef(level))
}

// SatCount returns the exact number of satisfying assignments of f over
// all of the kernel's variables.
func (k *Kernel) SatCount(f node.Ref) *big.Int {
	k.checkOpen()
	k.ensureReadable()
	memo := make(map[node.Ref]*big.Int)
	c := k.satCountRec(f, memo)
	// Variables with higher precedence than f's top variable are free.
	return new(big.Int).Lsh(c, uint(min(f.Level(), k.opts.Levels)))
}

// satCountRec counts assignments of the variables at levels ≥ f's level.
func (k *Kernel) satCountRec(f node.Ref, memo map[node.Ref]*big.Int) *big.Int {
	if f.IsZero() {
		return big.NewInt(0)
	}
	if f.IsOne() {
		return big.NewInt(1)
	}
	if c, ok := memo[f]; ok {
		return c
	}
	nd := k.store.Node(f)
	lvl := f.Level()
	c0 := k.satCountRec(nd.Low, memo)
	c1 := k.satCountRec(nd.High, memo)
	gap := func(child node.Ref) uint {
		cl := child.Level()
		if cl == node.TermLevel {
			cl = k.opts.Levels
		}
		return uint(cl - lvl - 1)
	}
	c := new(big.Int).Lsh(c0, gap(nd.Low))
	c.Add(c, new(big.Int).Lsh(c1, gap(nd.High)))
	memo[f] = c
	return c
}

// AnySat returns one satisfying assignment of f as a slice indexed by
// level: 0, 1, or -1 (don't care). ok is false when f is unsatisfiable.
func (k *Kernel) AnySat(f node.Ref) (assignment []int8, ok bool) {
	k.checkOpen()
	k.ensureReadable()
	if f.IsZero() {
		return nil, false
	}
	a := make([]int8, k.opts.Levels)
	for i := range a {
		a[i] = -1
	}
	for !f.IsTerminal() {
		nd := k.store.Node(f)
		// In a reduced BDD a branch is unsatisfiable iff it is the Zero
		// terminal, so any non-Zero branch leads to One.
		if nd.Low.IsZero() {
			a[f.Level()] = 1
			f = nd.High
		} else {
			a[f.Level()] = 0
			f = nd.Low
		}
	}
	return a, true
}

// Eval evaluates f under a complete assignment indexed by level.
func (k *Kernel) Eval(f node.Ref, assignment []bool) bool {
	k.checkOpen()
	k.ensureReadable()
	for !f.IsTerminal() {
		nd := k.store.Node(f)
		if assignment[f.Level()] {
			f = nd.High
		} else {
			f = nd.Low
		}
	}
	return f.IsOne()
}

// Size returns the number of internal nodes in f's reachable subgraph.
func (k *Kernel) Size(f node.Ref) int {
	k.checkOpen()
	return k.SizeMulti([]node.Ref{f})
}

// SizeMulti returns the number of distinct internal nodes reachable from
// any of the given roots (shared nodes counted once).
func (k *Kernel) SizeMulti(roots []node.Ref) int {
	k.checkOpen()
	k.ensureReadable()
	seen := make(map[node.Ref]bool)
	var stack []node.Ref
	for _, r := range roots {
		if !r.IsTerminal() && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	count := 0
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		nd := k.store.Node(r)
		for _, c := range [2]node.Ref{nd.Low, nd.High} {
			if !c.IsTerminal() && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count
}

// Support returns the sorted levels of the variables occurring in f.
func (k *Kernel) Support(f node.Ref) []int {
	k.checkOpen()
	k.ensureReadable()
	present := make(map[int]bool)
	seen := make(map[node.Ref]bool)
	var stack []node.Ref
	if !f.IsTerminal() {
		stack = append(stack, f)
		seen[f] = true
	}
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		present[r.Level()] = true
		nd := k.store.Node(r)
		for _, c := range [2]node.Ref{nd.Low, nd.High} {
			if !c.IsTerminal() && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	levels := make([]int, 0, len(present))
	for l := 0; l < k.opts.Levels; l++ {
		if present[l] {
			levels = append(levels, l)
		}
	}
	return levels
}
