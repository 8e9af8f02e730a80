// Package oracle is the cross-engine differential and metamorphic
// testing subsystem: it generates seeded random operation sequences,
// executes them against every construction engine (df, bf, hybrid, pbf,
// par×{1,2,4}) plus an exhaustive truth-table evaluator, cross-checks
// canonical structure, evaluation, and Boolean identities, and on any
// divergence records a replayable trace and shrinks it to a minimal
// failing case. See DESIGN.md §9.
package oracle

import (
	"math/big"
	"math/bits"

	"bfbdd/internal/core"
)

// MaxVars bounds the truth-table ground truth: 2^14 rows is 2 KiB per
// function, small enough to keep thousands of live tables per sequence.
const MaxVars = 14

// Truth is the exhaustive truth table of a Boolean function over a fixed
// variable count: bit r of the table (word r/64, bit r%64) is the
// function's value on the assignment where variable v takes bit v of r.
// This is the oracle's ground truth; every engine result is checked
// against it.
type Truth struct {
	Vars int
	W    []uint64
}

// rows returns the assignment count.
func (t Truth) rows() int { return 1 << t.Vars }

// words returns the backing word count for a variable count.
func words(vars int) int {
	if vars <= 6 {
		return 1
	}
	return 1 << (vars - 6)
}

// topMask masks the valid bits of the last word.
func topMask(vars int) uint64 {
	if vars >= 6 {
		return ^uint64(0)
	}
	return ^uint64(0) >> (64 - (1 << vars))
}

// TruthConst returns the constant function.
func TruthConst(vars int, v bool) Truth {
	t := Truth{Vars: vars, W: make([]uint64, words(vars))}
	if v {
		for i := range t.W {
			t.W[i] = ^uint64(0)
		}
		t.W[len(t.W)-1] &= topMask(vars)
	}
	return t
}

// TruthVar returns the projection function of variable v.
func TruthVar(vars, v int) Truth {
	t := Truth{Vars: vars, W: make([]uint64, words(vars))}
	for r := 0; r < t.rows(); r++ {
		if r>>v&1 == 1 {
			t.W[r>>6] |= 1 << (r & 63)
		}
	}
	return t
}

// Bit returns the function's value on assignment row r.
func (t Truth) Bit(r int) bool { return t.W[r>>6]>>(r&63)&1 == 1 }

// setBit sets row r to 1.
func (t Truth) setBit(r int) { t.W[r>>6] |= 1 << (r & 63) }

// Bin applies a binary operation word-wise.
func (t Truth) Bin(op core.Op, u Truth) Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	full := topMask(t.Vars)
	for i := range t.W {
		a, b := t.W[i], u.W[i]
		var w uint64
		switch op {
		case core.OpAnd:
			w = a & b
		case core.OpOr:
			w = a | b
		case core.OpXor:
			w = a ^ b
		case core.OpNand:
			w = ^(a & b)
		case core.OpNor:
			w = ^(a | b)
		case core.OpXnor:
			w = ^(a ^ b)
		case core.OpDiff:
			w = a &^ b
		case core.OpImp:
			w = ^a | b
		default:
			panic("oracle: Bin on " + op.String())
		}
		out.W[i] = w
	}
	if t.Vars < 6 {
		out.W[0] &= full
	}
	return out
}

// Not complements the function.
func (t Truth) Not() Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	for i := range t.W {
		out.W[i] = ^t.W[i]
	}
	if t.Vars < 6 {
		out.W[0] &= topMask(t.Vars)
	}
	return out
}

// Restrict fixes variable v to val.
func (t Truth) Restrict(v int, val bool) Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	for r := 0; r < t.rows(); r++ {
		src := r &^ (1 << v)
		if val {
			src |= 1 << v
		}
		if t.Bit(src) {
			out.setBit(r)
		}
	}
	return out
}

// ITE is if-then-else: t ? g : h, word-wise.
func (t Truth) ITE(g, h Truth) Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	for i := range t.W {
		out.W[i] = t.W[i]&g.W[i] | h.W[i]&^t.W[i]
	}
	return out
}

// Compose substitutes g for variable v: on row r the result is t's value
// on r with v's bit replaced by g's value on r.
func (t Truth) Compose(v int, g Truth) Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	for r := 0; r < t.rows(); r++ {
		src := r &^ (1 << v)
		if g.Bit(r) {
			src |= 1 << v
		}
		if t.Bit(src) {
			out.setBit(r)
		}
	}
	return out
}

// quantVar folds one variable out: exists (OR of cofactors) when ex,
// forall (AND) otherwise.
func (t Truth) quantVar(v int, ex bool) Truth {
	out := Truth{Vars: t.Vars, W: make([]uint64, len(t.W))}
	for r := 0; r < t.rows(); r++ {
		b0 := t.Bit(r &^ (1 << v))
		b1 := t.Bit(r | 1<<v)
		var b bool
		if ex {
			b = b0 || b1
		} else {
			b = b0 && b1
		}
		if b {
			out.setBit(r)
		}
	}
	return out
}

// Exists quantifies out every variable whose bit is set in mask.
func (t Truth) Exists(mask uint32) Truth {
	for v := 0; v < t.Vars; v++ {
		if mask>>v&1 == 1 {
			t = t.quantVar(v, true)
		}
	}
	return t
}

// Forall is the universal counterpart of Exists.
func (t Truth) Forall(mask uint32) Truth {
	for v := 0; v < t.Vars; v++ {
		if mask>>v&1 == 1 {
			t = t.quantVar(v, false)
		}
	}
	return t
}

// Count returns the number of satisfying assignments.
func (t Truth) Count() *big.Int {
	n := 0
	for _, w := range t.W {
		n += bits.OnesCount64(w)
	}
	return big.NewInt(int64(n))
}

// IsZero reports whether the function is constant false.
func (t Truth) IsZero() bool {
	for _, w := range t.W {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports table equality.
func (t Truth) Equal(u Truth) bool {
	if t.Vars != u.Vars {
		return false
	}
	for i := range t.W {
		if t.W[i] != u.W[i] {
			return false
		}
	}
	return true
}

// Assignment expands row r into the []bool form Manager.Eval expects.
func Assignment(vars, r int) []bool {
	a := make([]bool, vars)
	for v := 0; v < vars; v++ {
		a[v] = r>>v&1 == 1
	}
	return a
}
