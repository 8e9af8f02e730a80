// Package core implements the paper's BDD construction engines over the
// substrates in internal/node, internal/unique and internal/cache:
//
//   - a conventional depth-first engine (the paper's [3] baseline),
//   - a pure breadth-first engine ([17, 18, 2]),
//   - the hybrid breadth-first/depth-first engine ([8]) the paper builds on,
//   - the paper's partial breadth-first engine with evaluation contexts, and
//   - the parallel partial breadth-first engine with per-worker node
//     managers and compute caches, per-variable unique-table locks, and
//     dynamic load balancing by stealing operation groups from context
//     stacks.
//
// All engines share one Kernel (store + unique tables), so results from
// different engines are directly comparable canonical refs.
package core

import (
	"fmt"

	"bfbdd/internal/node"
)

// Op is a binary Boolean operation code.
type Op uint8

// The supported binary operations. NOT f is expressed as XNOR(f, 0),
// which the terminal rules below resolve without a dedicated operator.
const (
	OpAnd Op = iota
	OpOr
	OpXor
	OpNand
	OpNor
	OpXnor
	OpDiff // f AND NOT g
	OpImp  // NOT f OR g
	numBinaryOps

	// Composite operator kinds (composite.go). Their operator nodes share
	// the binary kinds' per-level queues, reduction and compute caches;
	// only the kernel's own entry points create them.
	opRestrict // (f, lit): f with lit's variable fixed to lit's polarity
	opExists   // (f, x): ∃x.f for the single variable x
	opForall   // (f, x): ∀x.f
	opITE      // (f, g, h): f ? g : h
	opCompose  // (f, g, x): f with g substituted for the variable x
)

var opNames = map[Op]string{
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpNand: "nand",
	OpNor: "nor", OpXnor: "xnor", OpDiff: "diff", OpImp: "imp",
	opRestrict: "restrict", opExists: "exists", opForall: "forall",
	opITE: "ite", opCompose: "compose",
}

// ternary reports whether op takes a third operand, which its operator
// node keeps in the arena's side blocks and its cache entry in the
// ternary cache segments.
func (op Op) ternary() bool { return op >= opITE }

// String returns the operation mnemonic.
func (op Op) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Commutative reports whether operand order is irrelevant, allowing the
// compute cache key to be normalized.
func (op Op) Commutative() bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpNand, OpNor, OpXnor:
		return true
	}
	return false
}

// terminal evaluates op on (f, g) if it is a terminal case, following the
// depth-first algorithm's "if terminal case, return simplified result".
// The rules below cover every pair of constant operands, so Shannon
// expansion always bottoms out.
func terminal(op Op, f, g node.Ref) (node.Ref, bool) {
	switch op {
	case OpAnd:
		switch {
		case f == g:
			return f, true
		case f.IsZero() || g.IsZero():
			return node.Zero, true
		case f.IsOne():
			return g, true
		case g.IsOne():
			return f, true
		}
	case OpOr:
		switch {
		case f == g:
			return f, true
		case f.IsOne() || g.IsOne():
			return node.One, true
		case f.IsZero():
			return g, true
		case g.IsZero():
			return f, true
		}
	case OpXor:
		switch {
		case f == g:
			return node.Zero, true
		case f.IsZero():
			return g, true
		case g.IsZero():
			return f, true
		}
	case OpNand:
		switch {
		case f.IsZero() || g.IsZero():
			return node.One, true
		case f.IsOne() && g.IsOne():
			return node.Zero, true
		}
	case OpNor:
		switch {
		case f.IsOne() || g.IsOne():
			return node.Zero, true
		case f.IsZero() && g.IsZero():
			return node.One, true
		}
	case OpXnor:
		switch {
		case f == g:
			return node.One, true
		case f.IsOne():
			return g, true
		case g.IsOne():
			return f, true
		}
	case OpDiff:
		switch {
		case f == g:
			return node.Zero, true
		case f.IsZero() || g.IsOne():
			return node.Zero, true
		case g.IsZero():
			return f, true
		}
	case OpImp:
		switch {
		case f == g:
			return node.One, true
		case f.IsZero() || g.IsOne():
			return node.One, true
		case f.IsOne():
			return g, true
		}
	default:
		panic("core: terminal called with non-binary op " + op.String())
	}
	return node.Zero, false
}

// evalConst evaluates op on two booleans; used by tests and oracles.
func evalConst(op Op, a, b bool) bool {
	switch op {
	case OpAnd:
		return a && b
	case OpOr:
		return a || b
	case OpXor:
		return a != b
	case OpNand:
		return !(a && b)
	case OpNor:
		return !(a || b)
	case OpXnor:
		return a == b
	case OpDiff:
		return a && !b
	case OpImp:
		return !a || b
	}
	panic("core: evalConst on non-binary op " + op.String())
}
