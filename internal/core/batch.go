package core

import (
	"sync"
	"sync/atomic"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
)

// BinOp is one top-level binary operation for ApplyBatch.
type BinOp struct {
	Op   Op
	F, G node.Ref
}

// ApplyBatch computes a set of independent top-level operations. This is
// the usage mode the paper's parallel measurements assume: users queue a
// set of top-level operations, the workers construct them cooperatively,
// and the garbage-collection condition is checked at the batch boundary
// (§4.1: "we check whether or not to garbage collect only after we
// complete a set of top level operations we queued" — the implicit
// barrier between batches is the parallel engine's GC safe point).
//
// With the parallel engine the operations are seeded round-robin across
// the workers, every worker drives its own share, and work stealing
// balances the remainder. Sequential engines evaluate the batch in order
// (still skipping per-operation GC checks, matching the batch-barrier
// semantics).
func (k *Kernel) ApplyBatch(ops []BinOp) []node.Ref {
	results := make([]node.Ref, len(ops))
	for i := range results {
		results[i] = node.Nil
	}
	k.applyBatchInto(ops, results)
	return results
}

// applyBatchInto is the batch engine shared by ApplyBatch and
// ApplyBatchCtx. It fills results[i] as ops[i] completes, so when a
// typed abort (budget trip, injected fault) unwinds the batch, the
// entries already produced report which operations finished — the
// partial-result contract of ApplyBatchCtx. results must have len(ops)
// entries, pre-filled with node.Nil.
func (k *Kernel) applyBatchInto(ops []BinOp, results []node.Ref) {
	if len(ops) == 0 {
		return
	}
	for _, op := range ops {
		if op.Op >= numBinaryOps {
			panic("core: ApplyBatch with non-binary op " + op.Op.String())
		}
		if !op.F.Valid() || !op.G.Valid() {
			panic("core: ApplyBatch with invalid operand")
		}
	}
	k.applySeq++

	// Pin all operands across the batch-entry collection. The unpin is
	// deferred so an aborted (canceled) batch does not leak pins.
	pins := make([]*Pin, 0, 2*len(ops))
	defer func() {
		for _, p := range pins {
			k.Unpin(p)
		}
	}()
	for _, op := range ops {
		pins = append(pins, k.Pin(op.F), k.Pin(op.G))
	}
	// Clear any abort error latched by a previous uninterruptible build
	// (see Apply); a stale latch would re-abort this batch at first poll.
	k.abortErr.Store(nil)
	defer k.convertAbort()
	k.ensureReadable()
	k.budgetGate()
	for i := range ops {
		ops[i].F = pins[2*i].Ref()
		ops[i].G = pins[2*i+1].Ref()
	}

	if k.opts.Engine == EnginePar && len(k.workers) > 1 {
		k.parApplyBatch(ops, results)
	} else {
		for i, op := range ops {
			switch k.opts.Engine {
			case EngineDF:
				results[i] = k.workers[0].dfApply(op.Op, op.F, op.G)
			case EngineHybrid:
				results[i] = k.workers[0].hybridApply(op.Op, op.F, op.G, node.Nil)
			default:
				results[i] = k.workers[0].pbfApply(op.Op, op.F, op.G, node.Nil)
			}
			// Results must survive the rest of the batch (no GC runs
			// inside the batch, but pin for uniformity with parallel).
			pins = append(pins, k.Pin(results[i]))
		}
	}

	k.sampleMemory()
}

// parApplyBatch seeds the operations round-robin over the workers and
// runs all workers symmetrically: each drives its own seeds to completion
// and then turns thief until the whole batch is done.
func (k *Kernel) parApplyBatch(ops []BinOp, results []node.Ref) {
	P := len(k.workers)

	// Seeding runs on the caller goroutine before any worker goroutine
	// starts, so touching each worker's private queues is safe.
	roots := make([]taggedRoot, len(ops))
	for i, op := range ops {
		w := k.workers[i%P]
		w.nOps = 0
		roots[i] = taggedRoot{worker: w, val: w.preprocess(op.Op, op.F, op.G)}
	}

	k.opDone.Store(false)
	var active atomic.Int32
	active.Store(int32(P))
	var wg sync.WaitGroup
	for _, w := range k.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			// A canceled build unwinds workers with the buildAborted
			// sentinel; catchAbort swallows it and raises opDone so the
			// still-idle workers drain too. The abort is re-raised on the
			// caller goroutine once every worker has quiesced.
			defer k.catchAbort()
			if w.pendingTotal > 0 {
				w.evalCycle()
			}
			// This worker's seeds are complete; help the others.
			if active.Add(-1) == 0 {
				k.opDone.Store(true)
				return
			}
			w.idleLoop()
		}(w)
	}
	wg.Wait()
	if k.aborted() {
		// Harvest the roots that did complete before the abort so the
		// partial-result contract of ApplyBatchCtx holds. The refs point
		// into the append-only node store, so they stay valid after
		// abortTopLevel recycles the operator arenas.
		for i, r := range roots {
			if !r.val.IsOpHandle() {
				results[i] = r.val.Ref()
				continue
			}
			o := r.worker.opAt(opRef(r.val))
			if o.state.Load() == opDone {
				results[i] = o.resultRef()
			}
		}
		panic(buildAborted{})
	}

	for i, r := range roots {
		if !r.val.IsOpHandle() {
			results[i] = r.val.Ref()
			continue
		}
		o := r.worker.opAt(opRef(r.val))
		if o.state.Load() != opDone {
			panic(internalf("parApplyBatch", "batch root %d not reduced", i))
		}
		results[i] = o.resultRef()
	}
	k.endTopLevel()
}

type taggedRoot struct {
	worker *worker
	val    cache.Tagged
}
