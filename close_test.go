package bfbdd

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bfbdd/internal/node"
)

// mustPanic runs f and asserts it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestManagerCloseUnpinsHandles(t *testing.T) {
	m := New(8)
	a := m.Var(0).And(m.Var(1))
	b := m.Var(2).Or(a)
	_ = b
	if m.Kernel().NumPins() == 0 {
		t.Fatal("expected live pins before Close")
	}
	m.Close()
	if !m.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if m.Kernel().NumPins() != 0 {
		t.Fatalf("Close left %d pins registered", m.Kernel().NumPins())
	}
}

func TestManagerDoubleClosePanics(t *testing.T) {
	m := New(4)
	m.Close()
	mustPanic(t, "bfbdd: Manager closed twice", m.Close)
}

func TestManagerUseAfterClosePanics(t *testing.T) {
	m := New(4)
	x := m.Var(0)
	y := m.Var(1)
	m.Close()
	mustPanic(t, "bfbdd: use of closed Manager", func() { m.Var(0) })
	mustPanic(t, "bfbdd: use of closed Manager", func() { x.And(y) })
	mustPanic(t, "bfbdd: use of closed Manager", func() { x.Eval(make([]bool, 4)) })
	mustPanic(t, "bfbdd: use of closed Manager", func() { m.Stats() })
	mustPanic(t, "bfbdd: use of closed Manager", func() { m.GC() })
	mustPanic(t, "bfbdd: use of closed Manager", func() { m.NumNodes() })
	// Free after Close is explicitly a safe no-op (shutdown code need not
	// order handle frees before the manager close).
	x.Free()
	y.Free()
}

func TestEvalValidatesAssignmentLength(t *testing.T) {
	m := New(4)
	defer m.Close()
	f := m.Var(0).Or(m.Var(3))
	if !f.Eval([]bool{true, false, false, false}) {
		t.Fatal("Eval(x0=1) = false, want true")
	}
	mustPanic(t, "bfbdd: Eval assignment has 2 entries for 4 variables", func() {
		f.Eval([]bool{true, false})
	})
	mustPanic(t, "bfbdd: Eval assignment has 6 entries for 4 variables", func() {
		f.Eval(make([]bool, 6))
	})
}

func TestApplyBatchCtxManagerLevel(t *testing.T) {
	m := New(8, WithEngine(EnginePar), WithWorkers(2))
	defer m.Close()
	a, b := m.Var(0), m.Var(1)
	res, err := m.ApplyBatchCtx(context.Background(), []BatchOp{
		{Kind: BatchAnd, F: a, G: b},
		{Kind: BatchXor, F: a, G: b},
	})
	if err != nil {
		t.Fatalf("ApplyBatchCtx: %v", err)
	}
	if !res[0].Equal(a.And(b)) || !res[1].Equal(a.Xor(b)) {
		t.Fatal("ApplyBatchCtx results not canonical")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.ApplyBatchCtx(ctx, []BatchOp{{Kind: BatchOr, F: a, G: b}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyBatchCtx on canceled ctx: err = %v", err)
	}
	if _, err := m.ApplyCtx(ctx, BatchOr, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApplyCtx on canceled ctx: err = %v", err)
	}
	r, err := m.ApplyCtx(context.Background(), BatchOr, a, b)
	if err != nil || !r.Equal(a.Or(b)) {
		t.Fatalf("ApplyCtx: r=%v err=%v", r, err)
	}
}

// TestKernelUseAfterClosePanics checks every kernel entry point of
// internal/core/quant.go on a closed kernel: each must panic with the
// closed-kernel message instead of dereferencing the released store.
func TestKernelUseAfterClosePanics(t *testing.T) {
	m := New(4)
	k := m.Kernel()
	x := m.Var(0).Ref()
	y := m.Var(1).Ref()
	m.Close()
	cases := []struct {
		name string
		call func()
	}{
		{"Exists", func() { k.Exists(x, y) }},
		{"Forall", func() { k.Forall(x, y) }},
		{"Restrict", func() { k.Restrict(x, 1, true) }},
		{"Compose", func() { k.Compose(x, 0, y) }},
		{"ITE", func() { k.ITE(x, y, x) }},
		{"SatCount", func() { k.SatCount(x) }},
		{"AnySat", func() { k.AnySat(x) }},
		{"Eval", func() { k.Eval(x, make([]bool, 4)) }},
		{"Size", func() { k.Size(x) }},
		{"SizeMulti", func() { k.SizeMulti([]node.Ref{x, y}) }},
		{"Support", func() { k.Support(x) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { mustPanic(t, "core: use of closed kernel", c.call) })
	}
}
