package bfbdd

import (
	"context"

	"bfbdd/internal/core"
	"bfbdd/internal/node"
)

// BatchOpKind names a binary operation for ApplyBatch.
type BatchOpKind int

// The operations accepted by ApplyBatch.
const (
	BatchAnd BatchOpKind = iota
	BatchOr
	BatchXor
	BatchNand
	BatchNor
	BatchXnor
	BatchDiff
	BatchImplies
)

func (k BatchOpKind) op() core.Op {
	switch k {
	case BatchAnd:
		return core.OpAnd
	case BatchOr:
		return core.OpOr
	case BatchXor:
		return core.OpXor
	case BatchNand:
		return core.OpNand
	case BatchNor:
		return core.OpNor
	case BatchXnor:
		return core.OpXnor
	case BatchDiff:
		return core.OpDiff
	case BatchImplies:
		return core.OpImp
	}
	panic("bfbdd: unknown batch op kind")
}

// BatchOp is one operation of an ApplyBatch call.
type BatchOp struct {
	Kind BatchOpKind
	F, G *BDD
}

// ApplyBatch computes a set of independent operations as one unit: with
// EnginePar the operations are seeded across the workers and constructed
// cooperatively (work stealing balances the remainder), and garbage
// collection runs at the batch boundary instead of between operations —
// the paper's "set of top level operations we queued" usage mode. The
// results are returned in order.
func (m *Manager) ApplyBatch(ops []BatchOp) []*BDD {
	refs := m.k.ApplyBatch(m.binOps(ops))
	out := make([]*BDD, len(refs))
	for i, r := range refs {
		out[i] = m.wrap(r)
	}
	return out
}

// ApplyBatchCtx is ApplyBatch with cooperative cancellation: when ctx is
// canceled (or its deadline passes) mid-construction, the workers abandon
// the batch at their next poll point, the kernel discards the transient
// build state, and ctx's error is returned. The manager remains fully
// usable; no results are returned for a canceled batch.
//
// When the batch aborts on a typed error instead — a *BudgetError after
// the budget escalation ladder is exhausted, or an injected fault — the
// returned slice has len(ops) entries reporting which operations
// completed before the abort: a valid handle for each finished op, nil
// for the rest. The completed handles are fully usable.
func (m *Manager) ApplyBatchCtx(ctx context.Context, ops []BatchOp) ([]*BDD, error) {
	bin := m.binOps(ops)
	finish := m.traceBuild(ctx)
	refs, err := m.k.ApplyBatchCtx(ctx, bin)
	finish()
	if err != nil {
		if len(refs) == 0 {
			return nil, err
		}
		// Partial completion: wrap (pin) the finished results immediately,
		// before any later operation can trigger a collection that would
		// reclaim them.
		out := make([]*BDD, len(refs))
		for i, r := range refs {
			if r != node.Nil {
				out[i] = m.wrap(r)
			}
		}
		return out, err
	}
	out := make([]*BDD, len(refs))
	for i, r := range refs {
		out[i] = m.wrap(r)
	}
	return out, nil
}

// ApplyCtx computes f <kind> g with cooperative cancellation (see
// ApplyBatchCtx).
func (m *Manager) ApplyCtx(ctx context.Context, kind BatchOpKind, f, g *BDD) (*BDD, error) {
	m.own("ApplyCtx", f, g)
	op, fr, gr := kind.op(), f.ref(), g.ref()
	return m.buildCtx(ctx, func() node.Ref { return m.k.Apply(op, fr, gr) })
}

// ITECtx computes f ? t : e with cooperative cancellation: a canceled
// context or a passed deadline abandons the build at the next poll point
// and returns ctx's error, and a budget trip returns its *BudgetError.
// The manager remains fully usable either way. The same holds for the
// other Ctx operations below.
func (m *Manager) ITECtx(ctx context.Context, f, t, e *BDD) (*BDD, error) {
	m.own("ITECtx", f, t, e)
	fr, tr, er := f.ref(), t.ref(), e.ref()
	return m.buildCtx(ctx, func() node.Ref { return m.k.ITE(fr, tr, er) })
}

// NotCtx computes ¬f with cooperative cancellation (see ITECtx).
func (m *Manager) NotCtx(ctx context.Context, f *BDD) (*BDD, error) {
	m.own("NotCtx", f)
	fr := f.ref()
	return m.buildCtx(ctx, func() node.Ref { return m.k.Not(fr) })
}

// ExistsCtx existentially quantifies vars out of f with cooperative
// cancellation (see ITECtx).
func (m *Manager) ExistsCtx(ctx context.Context, f *BDD, vars ...int) (*BDD, error) {
	m.own("ExistsCtx", f)
	fr, levels := f.ref(), m.cubeLevels(vars)
	return m.buildCtx(ctx, func() node.Ref { return m.k.Exists(fr, m.k.CubeRef(levels)) })
}

// ForallCtx universally quantifies vars out of f with cooperative
// cancellation (see ITECtx).
func (m *Manager) ForallCtx(ctx context.Context, f *BDD, vars ...int) (*BDD, error) {
	m.own("ForallCtx", f)
	fr, levels := f.ref(), m.cubeLevels(vars)
	return m.buildCtx(ctx, func() node.Ref { return m.k.Forall(fr, m.k.CubeRef(levels)) })
}

// RestrictCtx fixes variable v of f to value with cooperative
// cancellation (see ITECtx).
func (m *Manager) RestrictCtx(ctx context.Context, f *BDD, v int, value bool) (*BDD, error) {
	m.own("RestrictCtx", f)
	fr, lvl := f.ref(), m.level(v)
	return m.buildCtx(ctx, func() node.Ref { return m.k.Restrict(fr, lvl, value) })
}

// ComposeCtx substitutes g for variable v in f with cooperative
// cancellation (see ITECtx).
func (m *Manager) ComposeCtx(ctx context.Context, f *BDD, v int, g *BDD) (*BDD, error) {
	m.own("ComposeCtx", f, g)
	fr, lvl, gr := f.ref(), m.level(v), g.ref()
	return m.buildCtx(ctx, func() node.Ref { return m.k.Compose(fr, lvl, gr) })
}

// own panics unless every operand belongs to m.
func (m *Manager) own(method string, bs ...*BDD) {
	for _, b := range bs {
		if b.m != m {
			panic("bfbdd: " + method + " operand from another manager")
		}
	}
}

// buildCtx runs op under ctx's cancellation (core.Kernel.RunCtx), traced
// as one kernel-build span, and wraps its result.
func (m *Manager) buildCtx(ctx context.Context, op func() node.Ref) (*BDD, error) {
	finish := m.traceBuild(ctx)
	r, err := m.k.RunCtx(ctx, op)
	finish()
	if err != nil {
		return nil, err
	}
	return m.wrap(r), nil
}

// binOps validates the batch and lowers it to kernel operations.
func (m *Manager) binOps(ops []BatchOp) []core.BinOp {
	bin := make([]core.BinOp, len(ops))
	for i, op := range ops {
		op.F.mustShareManager(op.G)
		if op.F.m != m {
			panic("bfbdd: ApplyBatch operand from another manager")
		}
		bin[i] = core.BinOp{Op: op.Kind.op(), F: op.F.ref(), G: op.G.ref()}
	}
	return bin
}
