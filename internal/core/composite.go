package core

import (
	"bfbdd/internal/cache"
	"bfbdd/internal/faultinject"
	"bfbdd/internal/node"
)

// Composite operators.
//
// Restrict, single-variable Exists/Forall, ITE and Compose are operator
// kinds of the one build path: their operator nodes are expanded and
// reduced in the same per-level queues as the binary kinds (so they are
// stolen, budgeted, cancelled and traced like them), and the depth-first
// engine recurses over them in dfComposite. Only the expansion differs:
//
//   - restrict (f, lit) cofactors f alone; at lit's level the terminal
//     rule picks f's branch.
//   - exists/forall (f, x) cofactor f alone above x. At x the operator
//     node sets b0 = b1 = preprocess(OR/AND, f0, f1), and the reduction
//     rule r0 == r1 forwards that result.
//   - ite (f, g, h) cofactors all three operands.
//   - compose (f, g, x) cofactors f and g above x and becomes
//     ITE(g, f1, f0) at x's level: Compose(f, x, g) = ITE(g, f|x=1, f|x=0)
//     built in one pass.
//
// A ternary node's third operand lives in the arena's side blocks and
// its cache entries in the ternary cache segments, so the binary
// operator node and cache entry keep their sizes.

// normalize applies the composite kinds' terminal and normalisation
// rules. It reports either a final result (lvl < 0, result in f), a binary
// operation the composite reduces to (op < numBinaryOps, operands f and
// g), or the composite operation still to expand at level lvl.
func (k *Kernel) normalize(op Op, f, g, h node.Ref) (Op, node.Ref, node.Ref, node.Ref, int) {
	for {
		switch op {
		case opRestrict:
			switch {
			case f.Level() > g.Level(): // lit's variable does not occur in f
				return op, f, g, h, -1
			case f.Level() == g.Level():
				nd := k.store.Node(f)
				if k.store.Node(g).High.IsOne() {
					return op, nd.High, g, h, -1
				}
				return op, nd.Low, g, h, -1
			}
			return op, f, g, h, f.Level()
		case opExists, opForall:
			if f.Level() > g.Level() {
				return op, f, g, h, -1
			}
			return op, f, g, h, f.Level()
		case opITE:
			switch {
			case f.IsOne() || g == h:
				return op, g, g, h, -1
			case f.IsZero():
				return op, h, g, h, -1
			}
			if f == g {
				g = node.One
			}
			if f == h {
				h = node.Zero
			}
			switch {
			case g.IsOne() && h.IsZero():
				return op, f, g, h, -1
			case g.IsOne():
				return OpOr, f, h, node.Nil, 0
			case h.IsZero():
				return OpAnd, f, g, node.Nil, 0
			case g.IsZero():
				return OpDiff, h, f, node.Nil, 0 // h ∧ ¬f
			case h.IsOne():
				return OpImp, f, g, node.Nil, 0 // ¬f ∨ g
			}
			return op, f, g, h, min(f.Level(), g.Level(), h.Level())
		case opCompose:
			switch {
			case f.Level() > h.Level(): // x does not occur in f
				return op, f, g, h, -1
			case f.Level() == h.Level():
				nd := k.store.Node(f)
				op, f, g, h = opITE, g, nd.High, nd.Low
				continue
			}
			return op, f, g, h, min(f.Level(), g.Level())
		}
		panic(internalf("normalize", "non-composite op %v", op))
	}
}

// quantAt reports whether the exists/forall operation (f, x) sits at the
// quantified variable itself, and which binary operation then joins f's
// cofactors.
func quantAt(op Op, f, x node.Ref) (Op, bool) {
	if f.Level() != x.Level() {
		return 0, false
	}
	switch op {
	case opExists:
		return OpOr, true
	case opForall:
		return OpAnd, true
	}
	return 0, false
}

// cofactor returns the operands of the composite operation's branch at
// level lvl: every operand that is a function is cofactored; the literal
// or variable operand stays.
func (k *Kernel) cofactor(op Op, f, g, h node.Ref, lvl int, high bool) (node.Ref, node.Ref, node.Ref) {
	st := k.store
	br := st.Low
	if high {
		br = st.High
	}
	switch op {
	case opITE:
		return br(f, lvl), br(g, lvl), br(h, lvl)
	case opCompose:
		return br(f, lvl), br(g, lvl), h
	}
	return br(f, lvl), g, h
}

// third returns the third operand of the ternary operator node hd.
func (w *worker) third(hd opRef) node.Ref {
	return w.k.workers[hd.worker()].ops[hd.level()].third(hd.index())
}

// seed preprocesses the root of a top-level operation of any kind.
func (w *worker) seed(op Op, f, g, h node.Ref) cache.Tagged {
	if op < numBinaryOps {
		return w.preprocess(op, f, g)
	}
	return w.preprocessOp(op, f, g, h)
}

// lookup probes the compute cache for a composite operation.
func (w *worker) lookup(lvl int, op Op, f, g, h node.Ref) (cache.Tagged, bool) {
	if op.ternary() {
		return w.cache.Lookup3(lvl, uint8(op), f, g, h)
	}
	return w.cache.Lookup(lvl, uint8(op), f, g)
}

// remember inserts (insert) or refreshes a composite operation's cache
// entry.
func (w *worker) remember(lvl int, op Op, f, g, h node.Ref, v cache.Tagged, insert bool) {
	switch {
	case op.ternary() && insert:
		w.cache.Insert3(lvl, uint8(op), f, g, h, v)
	case op.ternary():
		w.cache.Update3(lvl, uint8(op), f, g, h, v)
	case insert:
		w.cache.Insert(lvl, uint8(op), f, g, v)
	default:
		w.cache.Update(lvl, uint8(op), f, g, v)
	}
}

// preprocessOp is preprocess (Fig 4) for the composite kinds: terminal
// and normalisation rules, cache probe, and otherwise creation and
// queueing of an operator node.
func (w *worker) preprocessOp(op Op, f, g, h node.Ref) cache.Tagged {
	op, f, g, h, lvl := w.k.normalize(op, f, g, h)
	switch {
	case lvl < 0:
		w.st.Terminals++
		return cache.FromRef(f)
	case op < numBinaryOps:
		return w.preprocess(op, f, g)
	}
	if v, ok := w.lookup(lvl, op, f, g, h); ok {
		w.st.CacheHits++
		if !v.IsOpHandle() {
			return v
		}
		hd := opRef(v)
		o := w.opAt(hd)
		switch o.state.Load() {
		case opDone:
			res := cache.FromRef(o.resultRef())
			w.remember(lvl, op, f, g, h, res, false)
			return res
		case opQueued:
			// As in preprocess: claim a released node into our own queue.
			if o.state.CompareAndSwap(opQueued, opClaimed) {
				w.enqueue(lvl, hd)
			}
		}
		return v
	}
	if faultinject.Enabled {
		if err := faultinject.Check(faultinject.OpAlloc); err != nil {
			panic(err)
		}
	}
	a := &w.ops[lvl]
	idx := a.alloc(op, f, g)
	if op.ternary() {
		a.setThird(idx, h)
	}
	w.opAllocBytes.Add(opNodeBytes)
	hd := makeOpRef(w.id, lvl, idx)
	w.enqueue(lvl, hd)
	w.remember(lvl, op, f, g, h, hd.tagged(), true)
	return hd.tagged()
}

// expandOp is the expansion step (Fig 5) of one composite operator node
// at level lvl.
func (w *worker) expandOp(o *opNode, hd opRef, lvl int) {
	if join, ok := quantAt(o.op, o.f, o.g); ok {
		st := w.k.store
		b := w.preprocess(join, st.Low(o.f, lvl), st.High(o.f, lvl))
		o.b0, o.b1 = b, b
		return
	}
	h := node.Nil
	if o.op.ternary() {
		h = w.third(hd)
	}
	f0, g0, h0 := w.k.cofactor(o.op, o.f, o.g, h, lvl, false)
	o.b0 = w.preprocessOp(o.op, f0, g0, h0)
	f1, g1, h1 := w.k.cofactor(o.op, o.f, o.g, h, lvl, true)
	o.b1 = w.preprocessOp(o.op, f1, g1, h1)
}

// dfRun computes an operation of any kind depth-first.
func (w *worker) dfRun(op Op, f, g, h node.Ref) node.Ref {
	if op < numBinaryOps {
		return w.dfApply(op, f, g)
	}
	return w.dfComposite(op, f, g, h)
}

// dfOp computes the operator node hd's operation depth-first (hybrid
// drain and stall escalation).
func (w *worker) dfOp(hd opRef) node.Ref {
	o := w.opAt(hd)
	h := node.Nil
	if o.op.ternary() {
		h = w.third(hd)
	}
	return w.dfRun(o.op, o.f, o.g, h)
}

// dfComposite is the depth-first algorithm (Fig 3) for the composite
// kinds. Like dfApply, a cache hit on a not-yet-reduced operator node
// computes it now and publishes its result.
func (w *worker) dfComposite(op Op, f, g, h node.Ref) node.Ref {
	w.pollCancel()
	op, f, g, h, lvl := w.k.normalize(op, f, g, h)
	switch {
	case lvl < 0:
		w.st.Terminals++
		return f
	case op < numBinaryOps:
		return w.dfApply(op, f, g)
	}
	v, ok := w.lookup(lvl, op, f, g, h)
	if ok {
		w.st.CacheHits++
		if !v.IsOpHandle() {
			return v.Ref()
		}
		if o := w.opAt(opRef(v)); o.state.Load() == opDone {
			return o.resultRef()
		}
	}
	var res node.Ref
	if join, at := quantAt(op, f, g); at {
		st := w.k.store
		res = w.dfApply(join, st.Low(f, lvl), st.High(f, lvl))
	} else {
		f0, g0, h0 := w.k.cofactor(op, f, g, h, lvl, false)
		r0 := w.dfComposite(op, f0, g0, h0)
		f1, g1, h1 := w.k.cofactor(op, f, g, h, lvl, true)
		r1 := w.dfComposite(op, f1, g1, h1)
		w.st.Ops++
		res = w.k.mkNode(w.id, lvl, r0, r1)
	}
	if ok {
		w.opAt(opRef(v)).setResult(res)
	}
	w.remember(lvl, op, f, g, h, cache.FromRef(res), !ok)
	return res
}
