package walreplay

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"bfbdd"
	"bfbdd/internal/node"
	"bfbdd/internal/wal"
)

// history is a short session over 4 variables exercising every
// state-bearing record kind: f = (x0 ∧ x1) ∨ ¬x2, then quantify,
// restrict, compose, an ITE, a free, and a collection.
func history() []wal.Record {
	return []wal.Record{
		wal.CreateRec{Options: []byte(`{"vars":4}`)},
		wal.VarRec{Index: 0, Handle: 1},
		wal.VarRec{Index: 1, Handle: 2},
		wal.VarRec{Index: 2, Negated: true, Handle: 3},
		wal.ApplyRec{Op: uint8(bfbdd.BatchAnd), F: 1, G: 2, Handle: 4},
		wal.ApplyRec{Op: uint8(bfbdd.BatchOr), F: 4, G: 3, Handle: 5},
		wal.BatchRec{Ops: []wal.ApplyRec{
			{Op: uint8(bfbdd.BatchXor), F: 5, G: 1, Handle: 6},
			{Op: uint8(bfbdd.BatchNand), F: 5, G: 2, Handle: 7},
		}},
		wal.ITERec{F: 5, G: 6, H: 7, Handle: 8},
		wal.NotRec{F: 8, Handle: 9},
		wal.QuantifyRec{F: 5, Vars: []int{0, 2}, Handle: 10},
		wal.QuantifyRec{Forall: true, F: 5, Vars: []int{1}, Handle: 11},
		wal.RestrictRec{F: 5, Var: 1, Value: true, Handle: 12},
		wal.ComposeRec{F: 5, G: 6, Var: 0, Handle: 13},
		wal.ConstRec{Value: true, Handle: 14},
		wal.FreeRec{Handles: []uint64{6, 7}},
		wal.GCRec{},
		wal.SetOrderRec{Levels: []int{3, 2, 1, 0}},
		wal.SnapshotRec{},
		wal.PublishRec{Name: "f-x", Handles: []uint64{5}},
	}
}

func replayAll(t *testing.T, recs []wal.Record) *State {
	t.Helper()
	st := NewState(bfbdd.New(4))
	for i, r := range recs {
		if err := st.Apply(r); err != nil {
			t.Fatalf("record %d (%s): %v", i, r.Kind(), err)
		}
	}
	return st
}

func TestReplayRebuildsState(t *testing.T) {
	st := replayAll(t, history())
	defer st.Mgr.Close()

	// Freed handles are gone, everything else is live.
	for _, h := range []uint64{6, 7} {
		if _, ok := st.Handles[h]; ok {
			t.Errorf("freed handle %d still bound", h)
		}
	}
	want := []uint64{1, 2, 3, 4, 5, 8, 9, 10, 11, 12, 13, 14}
	for _, h := range want {
		if _, ok := st.Handles[h]; !ok {
			t.Errorf("handle %d missing", h)
		}
	}
	if len(st.Handles) != len(want) {
		t.Errorf("%d handles, want %d", len(st.Handles), len(want))
	}
	if st.NextHandle != 14 {
		t.Errorf("NextHandle = %d, want 14", st.NextHandle)
	}
	if st.Closed {
		t.Error("Closed latched without a close record")
	}

	// Semantic spot checks against direct construction.
	m := st.Mgr
	x0, x1 := m.Var(0), m.Var(1)
	nx2 := m.NVar(2)
	f := x0.And(x1).Or(nx2)
	if !st.Handles[5].Equal(f) {
		t.Error("handle 5 is not (x0∧x1)∨¬x2")
	}
	if !st.Handles[9].Equal(st.Handles[8].Not()) {
		t.Error("handle 9 is not ¬handle8")
	}
	if !st.Handles[10].Equal(f.Exists(0, 2)) {
		t.Error("handle 10 is not ∃(x0,x2)f")
	}
	if !st.Handles[11].Equal(f.Forall(1)) {
		t.Error("handle 11 is not ∀(x1)f")
	}
	if !st.Handles[12].Equal(f.Restrict(1, true)) {
		t.Error("handle 12 is not f|x1=1")
	}
	if !st.Handles[14].Equal(m.One()) {
		t.Error("handle 14 is not the one constant")
	}
}

// TestReplayDeterminism replays the same history twice and requires
// structurally identical results — the property that makes "snapshot +
// tail" a faithful reconstruction.
func TestReplayDeterminism(t *testing.T) {
	a := replayAll(t, history())
	defer a.Mgr.Close()
	b := replayAll(t, history())
	defer b.Mgr.Close()
	if len(a.Handles) != len(b.Handles) {
		t.Fatalf("handle counts diverged: %d vs %d", len(a.Handles), len(b.Handles))
	}
	for h, ba := range a.Handles {
		bb, ok := b.Handles[h]
		if !ok {
			t.Fatalf("handle %d missing from second replay", h)
		}
		sa := a.Mgr.Kernel().CanonicalSignature([]node.Ref{ba.Ref()})
		sb := b.Mgr.Kernel().CanonicalSignature([]node.Ref{bb.Ref()})
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("handle %d: canonical signatures diverged", h)
		}
	}
}

func TestCloseLatches(t *testing.T) {
	st := NewState(bfbdd.New(2))
	defer st.Mgr.Close()
	if err := st.Apply(wal.CloseRec{}); err != nil {
		t.Fatal(err)
	}
	if !st.Closed {
		t.Fatal("close record did not latch Closed")
	}
}

// TestHandleOverwriteFreesOld proves last-write-wins handle reuse: a
// rolled-back op whose record survived on disk may be followed by a
// fresh op acknowledged under the same handle.
func TestHandleOverwriteFreesOld(t *testing.T) {
	st := NewState(bfbdd.New(2))
	defer st.Mgr.Close()
	if err := st.Apply(wal.VarRec{Index: 0, Handle: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(wal.VarRec{Index: 1, Handle: 1}); err != nil {
		t.Fatal(err)
	}
	if len(st.Handles) != 1 {
		t.Fatalf("%d handles after overwrite", len(st.Handles))
	}
	if !st.Handles[1].Equal(st.Mgr.Var(1)) {
		t.Fatal("overwrite did not win")
	}
}

// TestReplayRejectsInvalidHistories: records a valid server never writes
// must fail replay with a descriptive error instead of panicking or
// silently diverging.
func TestReplayRejectsInvalidHistories(t *testing.T) {
	cases := []struct {
		name string
		recs []wal.Record
		want string
	}{
		{"unknown operand", []wal.Record{
			wal.ApplyRec{Op: 0, F: 99, G: 99, Handle: 1}}, "no handle"},
		{"op out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.ApplyRec{Op: wal.NumOps, F: 1, G: 1, Handle: 2}}, "out of range"},
		{"var out of range", []wal.Record{
			wal.VarRec{Index: 7, Handle: 1}}, "out of range"},
		{"quantify var out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.QuantifyRec{F: 1, Vars: []int{9}, Handle: 2}}, "out of range"},
		{"restrict var out of range", []wal.Record{
			wal.VarRec{Index: 0, Handle: 1},
			wal.RestrictRec{F: 1, Var: -1, Handle: 2}}, "out of range"},
		{"free unknown handle", []wal.Record{
			wal.FreeRec{Handles: []uint64{5}}}, "no handle"},
		{"order wrong arity", []wal.Record{
			wal.SetOrderRec{Levels: []int{0}}}, "levels"},
		{"order not a permutation", []wal.Record{
			wal.SetOrderRec{Levels: []int{0, 0}}}, "permutation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewState(bfbdd.New(2))
			defer st.Mgr.Close()
			var err error
			for _, r := range tc.recs {
				if err = st.Apply(r); err != nil {
					break
				}
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestExecStampsCommitsThenBinds drives the live path: handles are
// stamped after NextHandle, the commit sees the stamped record before
// anything is bound, and a refused commit leaves the table untouched so
// the next record gets the same handle.
func TestExecStampsCommitsThenBinds(t *testing.T) {
	st := NewState(bfbdd.New(3))
	defer st.Mgr.Close()
	var journal []wal.Record
	commit := func(r wal.Record) error {
		if len(st.Handles) != len(journal) {
			t.Fatalf("table changed before commit: %d handles", len(st.Handles))
		}
		journal = append(journal, r)
		return nil
	}
	for i := 0; i < 2; i++ {
		hs, _, err := st.Exec(context.Background(), wal.VarRec{Index: i}, commit)
		if err != nil || hs[0] != uint64(i+1) {
			t.Fatalf("var %d: handles %v, err %v", i, hs, err)
		}
	}

	refused := errors.New("disk full")
	_, _, err := st.Exec(context.Background(), wal.NotRec{F: 1}, func(wal.Record) error { return refused })
	if !errors.Is(err, refused) || len(st.Handles) != 2 || st.NextHandle != 2 {
		t.Fatalf("refused commit: err %v, %d handles, next %d", err, len(st.Handles), st.NextHandle)
	}
	_, _, err = st.Exec(context.Background(), wal.FreeRec{Handles: []uint64{1}}, func(wal.Record) error { return refused })
	if !errors.Is(err, refused) || st.Handles[1] == nil {
		t.Fatalf("refused free: err %v, handle 1 bound = %v", err, st.Handles[1] != nil)
	}

	hs, res, err := st.Exec(context.Background(), wal.BatchRec{Ops: []wal.ApplyRec{
		{Op: uint8(bfbdd.BatchAnd), F: 1, G: 2},
		{Op: uint8(bfbdd.BatchXor), F: 1, G: 2},
	}}, commit)
	if err != nil || !reflect.DeepEqual(hs, []uint64{3, 4}) {
		t.Fatalf("batch: handles %v, err %v", hs, err)
	}
	want := wal.BatchRec{Ops: []wal.ApplyRec{
		{Op: uint8(bfbdd.BatchAnd), F: 1, G: 2, Handle: 3},
		{Op: uint8(bfbdd.BatchXor), F: 1, G: 2, Handle: 4},
	}}
	if got := journal[len(journal)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("journaled %#v, want %#v", got, want)
	}
	if st.Handles[3] != res[0] || !res[1].Equal(st.Mgr.Var(0).Xor(st.Mgr.Var(1))) {
		t.Fatal("batch results not bound under their stamped handles")
	}

	// The journal replays to the same table.
	rt := NewState(bfbdd.New(3))
	defer rt.Mgr.Close()
	for _, r := range journal {
		if err := rt.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if len(rt.Handles) != len(st.Handles) || rt.NextHandle != st.NextHandle {
		t.Fatalf("replayed %d handles (next %d), live has %d (next %d)",
			len(rt.Handles), rt.NextHandle, len(st.Handles), st.NextHandle)
	}
}

// countdownCtx is a context whose Err starts returning
// context.DeadlineExceeded after allow calls: a deadline that passes
// at a deterministic point of a build instead of a wall-clock one.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
	done      chan struct{}
}

func newCountdownCtx(allow int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.remaining.Store(allow)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunHonoursDeadline runs each composite record kind under a
// deadline that passes at the build's first poll. The deadline error must
// come back, every live handle must keep its canonical structure, and the
// same record must then run to the result the plain call gives.
func TestRunHonoursDeadline(t *testing.T) {
	m := bfbdd.New(12, bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(2),
		bfbdd.WithEvalThreshold(16), bfbdd.WithGroupSize(4))
	defer m.Close()
	st := NewState(m)
	// Three dense functions over all 12 variables: sums of products with
	// different strides, so no operation below is a terminal case.
	for h := uint64(1); h <= 3; h++ {
		f := m.Zero()
		for i := 0; i < 12; i++ {
			j, k := (i+int(h))%12, (i+2*int(h)+1)%12
			f = f.Xor(m.Var(i).And(m.Var(j).Or(m.Var(k))))
		}
		st.Set(h, f)
	}
	sigs := func() [][]uint64 {
		var out [][]uint64
		for _, h := range st.IDs() {
			out = append(out, m.Kernel().CanonicalSignature([]node.Ref{st.Handles[h].Ref()}))
		}
		return out
	}
	f, g, h := st.Handles[1], st.Handles[2], st.Handles[3]
	cases := []struct {
		rec  wal.Record
		want func() *bfbdd.BDD
	}{
		{wal.ITERec{F: 1, G: 2, H: 3}, func() *bfbdd.BDD { return f.ITE(g, h) }},
		{wal.NotRec{F: 1}, func() *bfbdd.BDD { return f.Not() }},
		{wal.QuantifyRec{F: 1, Vars: []int{2, 7, 10}}, func() *bfbdd.BDD { return f.Exists(2, 7, 10) }},
		{wal.QuantifyRec{Forall: true, F: 2, Vars: []int{0, 5}}, func() *bfbdd.BDD { return g.Forall(0, 5) }},
		{wal.RestrictRec{F: 3, Var: 6, Value: true}, func() *bfbdd.BDD { return h.Restrict(6, true) }},
		{wal.ComposeRec{F: 1, G: 2, Var: 4}, func() *bfbdd.BDD { return f.Compose(4, g) }},
	}
	for _, c := range cases {
		name := c.rec.Kind().String()
		if q, ok := c.rec.(wal.QuantifyRec); ok && q.Forall {
			name += "-forall"
		}
		t.Run(name, func(t *testing.T) {
			before := sigs()
			res, err := st.Run(newCountdownCtx(1), c.rec)
			if !errors.Is(err, context.DeadlineExceeded) || res != nil {
				t.Fatalf("Run past its deadline: res=%v err=%v, want the deadline error", res, err)
			}
			if !reflect.DeepEqual(sigs(), before) {
				t.Fatal("an aborted build changed a live handle's structure")
			}
			res, err = st.Run(context.Background(), c.rec)
			if err != nil || len(res) != 1 {
				t.Fatalf("Run after the abort: res=%v err=%v", res, err)
			}
			want := c.want()
			if !res[0].Equal(want) {
				t.Fatal("Run after the abort gave a different function than the plain call")
			}
			release(res)
			want.Free()
		})
	}
}
