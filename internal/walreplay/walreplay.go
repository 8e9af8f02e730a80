// Package walreplay is the one execution path for write-ahead-log
// records. Live serving, startup recovery, follower apply and the
// bfbdd-wal CLI all run a record through the same two steps: Run builds
// its result against the handle table without changing it, and Bind
// installs the result under the record's handles (or performs the free,
// collection or reorder the record describes). Live serving goes through
// Exec, which puts the journal between the two: it stamps fresh handles
// into the record and binds only once the log has accepted it. Replay
// goes through Apply and binds under the handles the record already
// carries, so it rebuilds the exact handle numbering regardless of how
// the original operations were coalesced or batched.
package walreplay

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"bfbdd"
	"bfbdd/internal/wal"
)

var (
	// ErrNoHandle means a record names a wire handle the table does not
	// hold.
	ErrNoHandle = errors.New("no handle")
	// ErrInvalid means a record misuses the engine (an out-of-range
	// variable, a non-permutation order, ...). It is detected before the
	// engine changes any state.
	ErrInvalid = errors.New("invalid operation")
)

// State is the session state records run against: the manager and its
// wire-handle table. NextHandle is the largest handle ever bound; Closed
// latches when a close record is applied (the caller must then discard
// the session instead of resurrecting it). A State is not safe for
// concurrent use.
type State struct {
	Mgr        *bfbdd.Manager
	Handles    map[uint64]*bfbdd.BDD
	NextHandle uint64
	Closed     bool
}

// NewState wraps a manager with an empty handle table.
func NewState(m *bfbdd.Manager) *State {
	return &State{Mgr: m, Handles: make(map[uint64]*bfbdd.BDD)}
}

// Get resolves wire handle h.
func (st *State) Get(h uint64) (*bfbdd.BDD, error) {
	b, ok := st.Handles[h]
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrNoHandle, h)
	}
	return b, nil
}

// IDs returns the bound wire handles in ascending order.
func (st *State) IDs() []uint64 {
	ids := make([]uint64, 0, len(st.Handles))
	for h := range st.Handles {
		ids = append(ids, h)
	}
	slices.Sort(ids)
	return ids
}

// Set installs b under wire handle h. An existing binding is released
// first: a sync failure after a durable append can roll an operation back
// in memory while its record survives on disk, so a later operation may
// legitimately reuse the handle — last write wins.
func (st *State) Set(h uint64, b *bfbdd.BDD) {
	if old, ok := st.Handles[h]; ok {
		old.Free()
	}
	st.Handles[h] = b
	st.NextHandle = max(st.NextHandle, h)
}

// Applies journals a group of binary applies as one record: a bare apply
// for a single operation, a batch otherwise.
func Applies(ops []wal.ApplyRec) wal.Record {
	if len(ops) == 1 {
		return ops[0]
	}
	return wal.BatchRec{Ops: ops}
}

// Apply replays one record: Run, then Bind under the handles it carries.
// Records that carry no session state (create, snapshot, publish) are
// skipped; a close record latches Closed. Errors mean the log does not
// describe a valid history for this state — the caller should refuse the
// recovery rather than serve a diverged session.
func (st *State) Apply(rec wal.Record) error {
	res, err := st.Run(context.Background(), rec)
	if err != nil {
		release(res)
		return err
	}
	st.Bind(rec, res)
	return nil
}

// Exec runs one live mutation: Run rec (whose handles are unset), stamp
// fresh handles into it, hand the stamped record to commit (the journal),
// and Bind only once commit accepts it. If commit refuses, the results
// are freed and the table is untouched. A batch that aborts partway
// commits and binds only its completed ops, and their handles come back
// together with the abort error. handles[i] is result slot i's handle (0
// where the slot did not complete) and res[i] its BDD, now owned by the
// table.
func (st *State) Exec(ctx context.Context, rec wal.Record, commit func(wal.Record) error) (handles []uint64, res []*bfbdd.BDD, err error) {
	res, err = st.Run(ctx, rec)
	if err != nil && !slices.ContainsFunc(res, func(b *bfbdd.BDD) bool { return b != nil }) {
		return nil, nil, err
	}
	rec, handles = st.stamp(rec, res)
	if cerr := commit(rec); cerr != nil {
		release(res)
		return nil, nil, cerr
	}
	st.Bind(rec, res)
	return handles, res, err
}

// Run executes rec against the table without changing it and returns
// its results, one per result slot of the record. Free, collection and
// reorder records are only validated (Bind performs them); records with
// no session state return nothing. On error no result survives, except
// for a batch that aborted partway: its completed ops keep their results
// (nil for the rest), which the caller then owns.
//
// Engine misuse (a "bfbdd: " panic, raised before the engine changes any
// state) comes back as an ErrInvalid error, so a crafted record cannot
// crash the process; every other panic propagates.
func (st *State) Run(ctx context.Context, rec wal.Record) (res []*bfbdd.BDD, err error) {
	defer func() {
		if p := recover(); p != nil {
			msg, ok := p.(string)
			if !ok || !strings.HasPrefix(msg, "bfbdd: ") {
				panic(p)
			}
			release(res)
			res, err = nil, fmt.Errorf("%w: %s", ErrInvalid, msg)
		}
	}()
	m := st.Mgr
	switch r := rec.(type) {
	case wal.CreateRec, wal.SnapshotRec, wal.PublishRec, wal.CloseRec, wal.GCRec:
		// Session construction is the caller's job (it needs the full
		// server option surface); audit records carry no state; close
		// and collection happen in Bind.
		return nil, nil
	case wal.VarRec:
		if r.Negated {
			return one(m.NVar(r.Index), nil)
		}
		return one(m.Var(r.Index), nil)
	case wal.ConstRec:
		if r.Value {
			return one(m.One(), nil)
		}
		return one(m.Zero(), nil)
	case wal.ApplyRec:
		return st.applyOps(ctx, []wal.ApplyRec{r})
	case wal.BatchRec:
		return st.applyOps(ctx, r.Ops)
	case wal.ITERec:
		fs, err := st.getAll(r.F, r.G, r.H)
		if err != nil {
			return nil, err
		}
		return one(m.ITECtx(ctx, fs[0], fs[1], fs[2]))
	case wal.NotRec:
		f, err := st.Get(r.F)
		if err != nil {
			return nil, err
		}
		return one(m.NotCtx(ctx, f))
	case wal.QuantifyRec:
		f, err := st.Get(r.F)
		if err != nil {
			return nil, err
		}
		if r.Forall {
			return one(m.ForallCtx(ctx, f, r.Vars...))
		}
		return one(m.ExistsCtx(ctx, f, r.Vars...))
	case wal.RestrictRec:
		f, err := st.Get(r.F)
		if err != nil {
			return nil, err
		}
		return one(m.RestrictCtx(ctx, f, r.Var, r.Value))
	case wal.ComposeRec:
		fs, err := st.getAll(r.F, r.G)
		if err != nil {
			return nil, err
		}
		return one(m.ComposeCtx(ctx, fs[0], r.Var, fs[1]))
	case wal.FreeRec:
		// The free is all-or-nothing: every handle must be bound, and a
		// handle listed twice is a double free.
		seen := make(map[uint64]struct{}, len(r.Handles))
		for _, h := range r.Handles {
			if _, err := st.Get(h); err != nil {
				return nil, err
			}
			if _, dup := seen[h]; dup {
				return nil, fmt.Errorf("%w %d: freed twice", ErrNoHandle, h)
			}
			seen[h] = struct{}{}
		}
		return nil, nil
	case wal.SetOrderRec:
		n := m.NumVars()
		if len(r.Levels) != n {
			return nil, fmt.Errorf("walreplay: order has %d levels for %d vars", len(r.Levels), n)
		}
		seen := make([]bool, n)
		for _, l := range r.Levels {
			if l < 0 || l >= n || seen[l] {
				return nil, fmt.Errorf("%w: order %v is not a permutation", ErrInvalid, r.Levels)
			}
			seen[l] = true
		}
		return nil, nil
	}
	return nil, fmt.Errorf("walreplay: unhandled record kind %v", rec.Kind())
}

// Bind installs the results Run produced for rec under rec's handles —
// the non-nil results in order, so a partly completed batch binds its
// completed ops — or performs the free, collection or reorder rec
// describes. A close record latches Closed.
func (st *State) Bind(rec wal.Record, res []*bfbdd.BDD) {
	switch r := rec.(type) {
	case wal.FreeRec:
		for _, h := range r.Handles {
			b := st.Handles[h]
			delete(st.Handles, h)
			b.Free()
		}
	case wal.GCRec:
		st.Mgr.GC()
	case wal.SetOrderRec:
		st.Mgr.SetOrder(r.Levels)
	case wal.CloseRec:
		st.Closed = true
	default:
		hs := handlesOf(rec)
		for _, b := range res {
			if b != nil {
				st.Set(hs[0], b)
				hs = hs[1:]
			}
		}
	}
}

// stamp numbers res's non-nil results with fresh handles after
// NextHandle and writes them into a copy of rec. A batch keeps only its
// completed ops. handles[i] is slot i's handle, 0 where res[i] is nil.
func (st *State) stamp(rec wal.Record, res []*bfbdd.BDD) (wal.Record, []uint64) {
	if len(res) == 0 {
		return rec, nil
	}
	handles := make([]uint64, len(res))
	next := st.NextHandle
	for i, b := range res {
		if b != nil {
			next++
			handles[i] = next
		}
	}
	rec = mapHandles(rec, func(i int, _ uint64) uint64 { return handles[i] })
	if b, ok := rec.(wal.BatchRec); ok {
		rec = Applies(slices.DeleteFunc(b.Ops, func(op wal.ApplyRec) bool { return op.Handle == 0 }))
	}
	return rec, handles
}

// handlesOf lists the result handles rec carries, in slot order.
func handlesOf(rec wal.Record) []uint64 {
	var hs []uint64
	mapHandles(rec, func(_ int, h uint64) uint64 {
		hs = append(hs, h)
		return h
	})
	return hs
}

// mapHandles returns a copy of rec whose result handle in slot i is
// f(i, old handle). Records without results come back unchanged.
func mapHandles(rec wal.Record, f func(i int, h uint64) uint64) wal.Record {
	switch r := rec.(type) {
	case wal.VarRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.ConstRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.ApplyRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.ITERec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.NotRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.QuantifyRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.RestrictRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.ComposeRec:
		r.Handle = f(0, r.Handle)
		return r
	case wal.BatchRec:
		ops := slices.Clone(r.Ops)
		for i := range ops {
			ops[i].Handle = f(i, ops[i].Handle)
		}
		return wal.BatchRec{Ops: ops}
	}
	return rec
}

// one wraps a single-result operation's outcome as a result list.
func one(b *bfbdd.BDD, err error) ([]*bfbdd.BDD, error) {
	if err != nil {
		return nil, err
	}
	return []*bfbdd.BDD{b}, nil
}

// release frees results that will never be bound.
func release(res []*bfbdd.BDD) {
	for _, b := range res {
		if b != nil {
			b.Free()
		}
	}
}

// getAll resolves several wire handles, failing on the first unbound one.
func (st *State) getAll(hs ...uint64) ([]*bfbdd.BDD, error) {
	out := make([]*bfbdd.BDD, len(hs))
	for i, h := range hs {
		b, err := st.Get(h)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// applyOps runs a group of binary applies as one engine batch.
func (st *State) applyOps(ctx context.Context, recs []wal.ApplyRec) ([]*bfbdd.BDD, error) {
	ops := make([]bfbdd.BatchOp, len(recs))
	for i, r := range recs {
		if r.Op >= wal.NumOps {
			return nil, fmt.Errorf("%w: op code %d out of range", ErrInvalid, r.Op)
		}
		fg, err := st.getAll(r.F, r.G)
		if err != nil {
			return nil, err
		}
		ops[i] = bfbdd.BatchOp{Kind: bfbdd.BatchOpKind(r.Op), F: fg[0], G: fg[1]}
	}
	return st.Mgr.ApplyBatchCtx(ctx, ops)
}
