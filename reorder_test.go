package bfbdd_test

import (
	"math/rand"
	"testing"

	"bfbdd"
)

// buildComparator builds the function a < b over interleavable variable
// pairs: variables 0..n-1 are the a bits, n..2n-1 the b bits.
func buildComparator(m *bfbdd.Manager, n int) *bfbdd.BDD {
	lt := m.Zero()
	eq := m.One()
	for i := n - 1; i >= 0; i-- {
		ai, bi := m.Var(i), m.Var(n+i)
		bitLt := ai.Not().And(bi)
		lt = lt.Or(eq.And(bitLt))
		eq = eq.And(ai.Xnor(bi))
	}
	return lt
}

func TestSetOrderPreservesSemantics(t *testing.T) {
	const nvars = 8
	m := bfbdd.New(nvars, bfbdd.WithEngine(bfbdd.EnginePBF), bfbdd.WithEvalThreshold(32))
	rng := rand.New(rand.NewSource(13))
	fns := []*bfbdd.BDD{m.Var(0).Xor(m.Var(5))}
	for i := 0; i < 25; i++ {
		a := fns[rng.Intn(len(fns))]
		v := m.Var(rng.Intn(nvars))
		switch rng.Intn(3) {
		case 0:
			fns = append(fns, a.And(v))
		case 1:
			fns = append(fns, a.Or(v.Not()))
		default:
			fns = append(fns, a.Xor(v))
		}
	}
	// Record semantics before reordering.
	truth := make([][]bool, len(fns))
	for i, f := range fns {
		truth[i] = make([]bool, 1<<nvars)
		for row := 0; row < 1<<nvars; row++ {
			assign := make([]bool, nvars)
			for v := 0; v < nvars; v++ {
				assign[v] = row>>v&1 == 1
			}
			truth[i][row] = f.Eval(assign)
		}
	}

	perms := [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0}, // full reversal
		{1, 0, 3, 2, 5, 4, 7, 6}, // pairwise swaps
		rng.Perm(nvars),          // random
		{0, 1, 2, 3, 4, 5, 6, 7}, // identity (no-op)
	}
	for _, perm := range perms {
		m.SetOrder(perm)
		for i, f := range fns {
			for row := 0; row < 1<<nvars; row++ {
				assign := make([]bool, nvars)
				for v := 0; v < nvars; v++ {
					assign[v] = row>>v&1 == 1
				}
				if f.Eval(assign) != truth[i][row] {
					t.Fatalf("order %v changed semantics of fn %d at row %d", perm, i, row)
				}
			}
		}
		// Canonicity after reorder: rebuilding a function must hit the
		// same handle value.
		g := m.Var(0).Xor(m.Var(5))
		if !g.Equal(fns[0]) {
			t.Fatalf("order %v: rebuilt x0^x5 is not canonical with the reordered handle", perm)
		}
	}
}

func TestSetOrderChangesSize(t *testing.T) {
	const n = 7 // comparator operand width; variables: a=0..6, b=7..13
	m := bfbdd.New(2 * n)
	lt := buildComparator(m, n)
	separated := lt.Size() // a-word before b-word: the bad order

	// Interleave: a_i and b_i adjacent.
	interleaved := make([]int, 2*n)
	for i := 0; i < n; i++ {
		interleaved[i] = 2 * i
		interleaved[n+i] = 2*i + 1
	}
	m.SetOrder(interleaved)
	good := lt.Size()
	if good*2 >= separated {
		t.Fatalf("interleaving should shrink the comparator: separated=%d interleaved=%d",
			separated, good)
	}
	// And back: size returns to the original.
	identity := make([]int, 2*n)
	for i := range identity {
		identity[i] = i
	}
	m.SetOrder(identity)
	if lt.Size() != separated {
		t.Fatalf("returning to the original order: size %d want %d", lt.Size(), separated)
	}
}

func TestSetOrderVarIdentityStable(t *testing.T) {
	m := bfbdd.New(4)
	f := m.Var(2) // the function "variable 2"
	m.SetOrder([]int{3, 2, 1, 0})
	// Var(2) must still denote the same function.
	if !f.Equal(m.Var(2)) {
		t.Fatal("variable identity broken by reorder")
	}
	if m.LevelOf(2) != 1 {
		t.Fatalf("LevelOf(2) = %d want 1", m.LevelOf(2))
	}
	order := m.Order()
	want := []int{3, 2, 1, 0} // level l holds variable want[l]
	for l, v := range order {
		if v != want[l] {
			t.Fatalf("Order() = %v want %v", order, want)
		}
	}
	// Restrict/quantify by public index after reorder.
	g := m.Var(0).And(m.Var(2))
	if !g.Restrict(2, true).Equal(m.Var(0)) {
		t.Fatal("Restrict by variable index broken after reorder")
	}
	if !g.Exists(0).Equal(m.Var(2)) {
		t.Fatal("Exists by variable index broken after reorder")
	}
	sup := g.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 2 {
		t.Fatalf("Support = %v want [0 2]", sup)
	}
	if a, ok := g.AnySat(); !ok || !a[0] || !a[2] {
		t.Fatalf("AnySat after reorder = %v, %v", a, ok)
	}
}

func TestSetOrderWithFreedAndLiveHandles(t *testing.T) {
	m := bfbdd.New(6)
	keep := m.Var(0).And(m.Var(3))
	dead := m.Var(1).Or(m.Var(4))
	dead.Free()
	m.SetOrder([]int{5, 4, 3, 2, 1, 0})
	if keep.Size() != 2 {
		t.Fatalf("conjunction size after reorder = %d want 2", keep.Size())
	}
	count := keep.SatCount()
	if count.Int64() != 1<<4 {
		t.Fatalf("SatCount after reorder = %v want 16", count)
	}
}

func TestSetOrderPanics(t *testing.T) {
	m := bfbdd.New(3)
	for _, bad := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOrder(%v) did not panic", bad)
				}
			}()
			m.SetOrder(bad)
		}()
	}
}

// TestSetOrderRejectsDuplicateLevels: a repeated level is refused with the
// engine's own misuse panic before the kernel is touched, so the manager
// and its handles stay usable under the old order.
func TestSetOrderRejectsDuplicateLevels(t *testing.T) {
	m := bfbdd.New(3)
	defer m.Close()
	f := m.Var(0).And(m.Var(2))
	for _, bad := range [][]int{{0, 0, 1}, {2, 1, 2}} {
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "bfbdd: SetOrder is not a permutation" {
					t.Errorf("SetOrder(%v) panicked with %q", bad, msg)
				}
			}()
			m.SetOrder(bad)
		}()
	}
	if got := m.Order(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("order after refused SetOrder = %v, want identity", got)
	}
	if !f.Equal(m.Var(2).And(m.Var(0))) || f.Size() != 2 {
		t.Fatal("handle changed by a refused SetOrder")
	}
}
