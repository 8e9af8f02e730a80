package core

import (
	"sync/atomic"

	"bfbdd/internal/cache"
	"bfbdd/internal/node"
)

// Operator-node states. An operator node is created claimed by the worker
// whose expansion produced it; a context push releases the still-unexpanded
// remainder into stealable groups; claiming (by the owner draining its own
// groups, by a cache hit, or by a thief) happens with a CAS so exactly one
// worker expands and reduces each node.
const (
	opQueued  uint32 = iota // sitting in a context group, unowned
	opClaimed               // owned by a worker's pending queue
	opDone                  // Result is valid
)

// opNode is one pending Shannon expansion: the paper's operator node, with
// branch0/branch1 holding either BDD refs or references to child operator
// nodes, and result filled in by the reduction phase.
//
// Cross-worker protocol: only the claiming worker writes f/g/b0/b1; other
// workers read result only after observing state == opDone (release /
// acquire pairing via state). The result itself is atomic because a
// worker stalled on a claimed operator node may escalate and compute the
// value depth-first (see worker.forceResolve): both writers store the
// same canonical ref, and publishing through state keeps readers correct
// whichever store lands first.
type opNode struct {
	f, g   node.Ref
	b0, b1 cache.Tagged
	result atomic.Uint64 // holds a node.Ref
	state  atomic.Uint32
	op     Op
}

// setResult publishes the operator node's result.
func (o *opNode) setResult(r node.Ref) {
	o.result.Store(uint64(r))
	o.state.Store(opDone)
}

// resultRef reads the published result; valid only after state == opDone.
func (o *opNode) resultRef() node.Ref { return node.Ref(o.result.Load()) }

// opNodeBytes approximates the footprint of one operator node for the
// memory accounting (Fig 9/10).
const opNodeBytes = 48

// opRef is a packed handle to an operator node: bit 63 set (so it is
// distinguishable from a node.Ref inside a cache.Tagged word), owner
// worker in bits 48..55, level in bits 32..47, arena index in bits 0..31.
type opRef uint64

func makeOpRef(worker, level int, idx uint32) opRef {
	return opRef(1)<<63 | opRef(worker)<<48 | opRef(level)<<32 | opRef(idx)
}

func (r opRef) worker() int   { return int(r>>48) & 0xFF }
func (r opRef) level() int    { return int(r>>32) & 0xFFFF }
func (r opRef) index() uint32 { return uint32(r) }

func (r opRef) tagged() cache.Tagged { return cache.Tagged(r) }

const (
	opBlockShift = 10
	opBlockSize  = 1 << opBlockShift
	opBlockMask  = opBlockSize - 1
)

// opBlock is one block of an operator arena.
type opBlock struct {
	nodes [opBlockSize]opNode
	// thirds holds the third operand of the block's ternary operator
	// nodes (ITE, Compose). It is allocated when the first one lands in
	// the block, so binary builds never pay for it and opNode keeps its
	// binary size.
	thirds *[opBlockSize]node.Ref
}

// opArena is the operator-node manager for one (worker, variable) pair.
// Like the BDD node arenas, it allocates in blocks and is walked
// contiguously, which is what makes the breadth-first queues cache
// friendly; the arena itself doubles as backing storage for both the
// operator queue and the reduce queue.
type opArena struct {
	// blocks is the block directory. Other workers resolve handles into
	// this arena (steals, stalled reductions, cache hits) while its owner
	// allocates, so the owner grows the directory by publishing a new
	// slice header and only ever writes elements past the published
	// length.
	blocks atomic.Pointer[[]*opBlock]
	n      uint32
	// thirdBlocks counts the blocks that carry a thirds array.
	thirdBlocks int
}

// dir returns the published block directory.
func (a *opArena) dir() []*opBlock {
	if p := a.blocks.Load(); p != nil {
		return *p
	}
	return nil
}

func (a *opArena) alloc(op Op, f, g node.Ref) uint32 {
	i := a.n
	if i&opBlockMask == 0 {
		if dir := a.dir(); int(i>>opBlockShift) == len(dir) {
			dir = append(dir, new(opBlock))
			a.blocks.Store(&dir)
		}
	}
	a.n++
	nd := a.at(i)
	nd.op, nd.f, nd.g = op, f, g
	nd.b0, nd.b1 = 0, 0
	nd.result.Store(uint64(node.Nil))
	nd.state.Store(opClaimed)
	return i
}

func (a *opArena) at(i uint32) *opNode {
	return &(*a.blocks.Load())[i>>opBlockShift].nodes[i&opBlockMask]
}

// setThird records the third operand of the ternary operator node i.
func (a *opArena) setThird(i uint32, h node.Ref) {
	b := (*a.blocks.Load())[i>>opBlockShift]
	if b.thirds == nil {
		b.thirds = new([opBlockSize]node.Ref)
		a.thirdBlocks++
	}
	b.thirds[i&opBlockMask] = h
}

// third returns the third operand of the ternary operator node i.
func (a *opArena) third(i uint32) node.Ref {
	return (*a.blocks.Load())[i>>opBlockShift].thirds[i&opBlockMask]
}

func (a *opArena) len() uint32 { return a.n }

// reset drops all operator nodes but keeps block storage for reuse.
func (a *opArena) reset() { a.n = 0 }

// release returns block storage to the runtime.
func (a *opArena) release() { a.blocks.Store(nil); a.n, a.thirdBlocks = 0, 0 }

func (a *opArena) bytes() uint64 {
	return uint64(len(a.dir()))*opBlockSize*opNodeBytes + uint64(a.thirdBlocks)*opBlockSize*8
}
