package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"bfbdd/internal/node"
)

func quantKernel() *Kernel {
	return NewKernel(Options{Levels: 6, Engine: EnginePBF, EvalThreshold: 16, GroupSize: 4})
}

// quantEngines is the engine matrix of the composite-operator tests. The
// tiny threshold and group size make the breadth-first engines push
// evaluation contexts, and par2 steal, on these 6-variable functions.
var quantEngines = []Options{
	{Engine: EngineDF},
	{Engine: EngineBF},
	{Engine: EngineHybrid, EvalThreshold: 16},
	{Engine: EnginePBF, EvalThreshold: 16, GroupSize: 4},
	{Engine: EnginePar, Workers: 2, EvalThreshold: 16, GroupSize: 4, Stealing: true},
}

// forEachEngine runs fn as a subtest on a fresh 6-level kernel of every
// engine in quantEngines.
func forEachEngine(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	for _, o := range quantEngines {
		o.Levels = 6
		name := o.Engine.String()
		if o.Workers > 1 {
			name = fmt.Sprintf("%s%d", name, o.Workers)
		}
		t.Run(name, func(t *testing.T) { fn(t, NewKernel(o)) })
	}
}

// randomFunc builds a random function and its truth mask.
func randomFunc(k *Kernel, rng *rand.Rand, nvars, steps int) (node.Ref, uint64) {
	o := newTruthOracle(k, nvars, rng.Int63())
	for i := 0; i < steps; i++ {
		o.step()
	}
	idx := len(o.refs) - 1
	return o.refs[idx], o.masks[idx]
}

// maskExists computes ∃ var v over a 6-variable truth mask.
func maskExists(m uint64, v, nvars int) uint64 {
	var out uint64
	for row := 0; row < 1<<nvars; row++ {
		flipped := row ^ (1 << (nvars - 1 - v)) // toggle bit of var v
		if m>>row&1 == 1 || m>>flipped&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func maskForall(m uint64, v, nvars int) uint64 {
	var out uint64
	for row := 0; row < 1<<nvars; row++ {
		flipped := row ^ (1 << (nvars - 1 - v))
		if m>>row&1 == 1 && m>>flipped&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func maskRestrict(m uint64, v int, val bool, nvars int) uint64 {
	var out uint64
	for row := 0; row < 1<<nvars; row++ {
		fixed := row &^ (1 << (nvars - 1 - v))
		if val {
			fixed |= 1 << (nvars - 1 - v)
		}
		if m>>fixed&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func maskOf(k *Kernel, f node.Ref, nvars int) uint64 {
	var m uint64
	assign := make([]bool, k.Levels())
	for row := 0; row < 1<<nvars; row++ {
		for v := 0; v < nvars; v++ {
			assign[v] = row>>(nvars-1-v)&1 == 1
		}
		if k.Eval(f, assign) {
			m |= 1 << row
		}
	}
	return m
}

func TestExistsForallAgainstTruthTables(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 25; trial++ {
			f, m := randomFunc(k, rng, 6, 40)
			vars := []int{rng.Intn(6)}
			if trial%2 == 0 {
				vars = append(vars, rng.Intn(6), rng.Intn(6))
			}
			cube := k.CubeRef(vars)

			wantE, wantA := m, m
			done := map[int]bool{}
			for _, v := range vars {
				if done[v] {
					continue
				}
				done[v] = true
				wantE = maskExists(wantE, v, 6)
				wantA = maskForall(wantA, v, 6)
			}
			if got := maskOf(k, k.Exists(f, cube), 6); got != wantE {
				t.Fatalf("trial %d: Exists mask %x want %x (vars %v)", trial, got, wantE, vars)
			}
			if got := maskOf(k, k.Forall(f, cube), 6); got != wantA {
				t.Fatalf("trial %d: Forall mask %x want %x (vars %v)", trial, got, wantA, vars)
			}
		}
	})
}

func TestQuantifierIdentities(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 20; trial++ {
			f, _ := randomFunc(k, rng, 6, 30)
			v := rng.Intn(6)
			cube := k.CubeRef([]int{v})

			// ∃v f = f|v=0 ∨ f|v=1 ; ∀v f = f|v=0 ∧ f|v=1.
			f0 := k.Restrict(f, v, false)
			f1 := k.Restrict(f, v, true)
			if k.Exists(f, cube) != k.Apply(OpOr, f0, f1) {
				t.Fatalf("trial %d: exists identity failed", trial)
			}
			if k.Forall(f, cube) != k.Apply(OpAnd, f0, f1) {
				t.Fatalf("trial %d: forall identity failed", trial)
			}
			// De Morgan over quantifiers: ¬∃v f = ∀v ¬f.
			if k.Not(k.Exists(f, cube)) != k.Forall(k.Not(f), cube) {
				t.Fatalf("trial %d: quantifier De Morgan failed", trial)
			}
			// Quantifying a variable not in the support is the identity.
			outside := k.CubeRef([]int{(v + 1) % 6})
			g := k.Restrict(f, (v+1)%6, false) // eliminate the var first
			if k.Exists(g, outside) != g {
				t.Fatalf("trial %d: exists over absent var changed f", trial)
			}
		}
	})
}

func TestRestrictAgainstTruthTables(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 25; trial++ {
			f, m := randomFunc(k, rng, 6, 40)
			v := rng.Intn(6)
			val := rng.Intn(2) == 1
			got := maskOf(k, k.Restrict(f, v, val), 6)
			want := maskRestrict(m, v, val, 6)
			if got != want {
				t.Fatalf("trial %d: restrict(%d,%v) mask %x want %x", trial, v, val, got, want)
			}
		}
	})
}

// maskCompose computes f[v := g] over 6-variable truth masks: row r takes
// f's value on r with v's bit replaced by g's value on r.
func maskCompose(mf, mg uint64, v, nvars int) uint64 {
	var out uint64
	for row := 0; row < 1<<nvars; row++ {
		fixed := row &^ (1 << (nvars - 1 - v))
		if mg>>row&1 == 1 {
			fixed |= 1 << (nvars - 1 - v)
		}
		if mf>>fixed&1 == 1 {
			out |= 1 << row
		}
	}
	return out
}

func TestComposeAgainstTruthTables(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 25; trial++ {
			f, mf := randomFunc(k, rng, 6, 30)
			g, mg := randomFunc(k, rng, 6, 20)
			if trial%5 == 0 {
				g, mg = node.One, 1<<64-1 // constant g restricts f
			}
			v := rng.Intn(6)
			got := maskOf(k, k.Compose(f, v, g), 6)
			if want := maskCompose(mf, mg, v, 6); got != want {
				t.Fatalf("trial %d: compose(f, %d, g) mask %x want %x", trial, v, got, want)
			}
		}
	})
}

func TestComposeIdentity(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(37))
		f, _ := randomFunc(k, rng, 6, 30)
		// Substituting a variable with itself is the identity.
		for v := 0; v < 6; v++ {
			if k.Compose(f, v, k.VarRef(v)) != f {
				t.Fatalf("compose(f, %d, x%d) != f", v, v)
			}
		}
	})
}

func TestITETruthTable(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 30; trial++ {
			f, mf := randomFunc(k, rng, 6, 20)
			g, mg := randomFunc(k, rng, 6, 20)
			h, mh := randomFunc(k, rng, 6, 20)
			switch trial % 6 { // drive the normalisation rules too
			case 1:
				g, mg = f, mf
			case 2:
				h, mh = f, mf
			case 3:
				g, mg, h, mh = node.Zero, 0, node.One, 1<<64-1
			}
			got := maskOf(k, k.ITE(f, g, h), 6)
			want := (mf & mg) | (mh &^ mf)
			if got != want {
				t.Fatalf("trial %d: ITE mask %x want %x", trial, got, want)
			}
		}
	})
}

// TestCompositeBuildCount pins the build count of each composite
// operation: ITE, Compose and Restrict are one build whatever the size of
// f, and quantifying k variables is at most k single-variable builds —
// exactly k when every variable can occur in the operand at its step,
// none for a variable above the operand's top variable.
func TestCompositeBuildCount(t *testing.T) {
	forEachEngine(t, func(t *testing.T, k *Kernel) {
		rng := rand.New(rand.NewSource(53))
		builds := func(op func()) uint64 {
			before := k.applySeq
			op()
			return k.applySeq - before
		}
		x := func(l int) node.Ref { return k.VarRef(l) }
		// any is x1 ∨ … ∨ x5: quantifying at most four of those variables
		// out of it never yields 0, so x0 ∧ (any ∨ r) keeps x0 on top
		// through every step of the fold.
		anyVar := node.Zero
		for l := 1; l < 6; l++ {
			anyVar = k.Apply(OpOr, anyVar, x(l))
		}
		for _, steps := range []int{5, 60} {
			r, _ := randomFunc(k, rng, 6, steps)
			g, _ := randomFunc(k, rng, 6, steps)
			h, _ := randomFunc(k, rng, 6, steps)
			f := k.Apply(OpAnd, x(0), k.Apply(OpOr, anyVar, r))
			if n := builds(func() { k.ITE(f, g, h) }); n != 1 {
				t.Fatalf("ITE started %d builds, want 1", n)
			}
			if n := builds(func() { k.Compose(f, 2, g) }); n != 1 {
				t.Fatalf("Compose started %d builds, want 1", n)
			}
			if n := builds(func() { k.Restrict(f, 3, true) }); n != 1 {
				t.Fatalf("Restrict started %d builds, want 1", n)
			}
			for nv := 1; nv <= 4; nv++ {
				vars := rng.Perm(5)[:nv]
				for i := range vars {
					vars[i]++
				}
				cube := k.CubeRef(vars)
				if n := builds(func() { k.Exists(f, cube) }); n != uint64(nv) {
					t.Fatalf("Exists over %d vars started %d builds", nv, n)
				}
				if n := builds(func() { k.Forall(f, cube) }); n != uint64(nv) {
					t.Fatalf("Forall over %d vars started %d builds", nv, n)
				}
			}
			if n := builds(func() { k.Exists(anyVar, k.CubeRef([]int{0})) }); n != 0 {
				t.Fatalf("Exists over a variable above the top started %d builds", n)
			}
		}
	})
}

func TestSatCountAgainstEnumeration(t *testing.T) {
	k := quantKernel()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		f, m := randomFunc(k, rng, 6, 30)
		want := 0
		for row := 0; row < 64; row++ {
			if m>>row&1 == 1 {
				want++
			}
		}
		if got := k.SatCount(f); got.Cmp(big.NewInt(int64(want))) != 0 {
			t.Fatalf("trial %d: SatCount = %v want %d", trial, got, want)
		}
	}
}

func TestSatCountScaling(t *testing.T) {
	// Over n variables, a single variable has 2^(n-1) satisfying rows.
	k := NewKernel(Options{Levels: 40, Engine: EnginePBF})
	for _, lvl := range []int{0, 17, 39} {
		want := new(big.Int).Lsh(big.NewInt(1), 39)
		if got := k.SatCount(k.VarRef(lvl)); got.Cmp(want) != 0 {
			t.Fatalf("SatCount(x%d) = %v want %v", lvl, got, want)
		}
	}
	if k.SatCount(node.One).Cmp(new(big.Int).Lsh(big.NewInt(1), 40)) != 0 {
		t.Fatal("SatCount(1) wrong")
	}
	if k.SatCount(node.Zero).Sign() != 0 {
		t.Fatal("SatCount(0) wrong")
	}
}

func TestAnySat(t *testing.T) {
	k := quantKernel()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 30; trial++ {
		f, m := randomFunc(k, rng, 6, 30)
		a, ok := k.AnySat(f)
		if m == 0 {
			if ok {
				t.Fatalf("trial %d: AnySat on unsat function returned %v", trial, a)
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: AnySat failed on satisfiable function", trial)
		}
		// Every completion of the partial assignment must satisfy f;
		// check with don't-cares set both ways on a few samples.
		assign := make([]bool, k.Levels())
		for s := 0; s < 8; s++ {
			for i := range assign[:6] {
				switch a[i] {
				case 1:
					assign[i] = true
				case 0:
					assign[i] = false
				default:
					assign[i] = rng.Intn(2) == 1
				}
			}
			if !k.Eval(f, assign) {
				t.Fatalf("trial %d: AnySat assignment does not satisfy", trial)
			}
		}
	}
}

func TestSupport(t *testing.T) {
	k := quantKernel()
	x0, x2, x4 := k.VarRef(0), k.VarRef(2), k.VarRef(4)
	f := k.Apply(OpAnd, x0, k.Apply(OpXor, x2, x4))
	got := k.Support(f)
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("Support = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v want %v", got, want)
		}
	}
	if len(k.Support(node.One)) != 0 {
		t.Fatal("Support of constant not empty")
	}
}

func TestCubeRef(t *testing.T) {
	k := quantKernel()
	cube := k.CubeRef([]int{3, 1, 5, 1}) // unsorted with duplicate
	// Expect x1 ∧ x3 ∧ x5 as a 3-node chain.
	if k.Size(cube) != 3 {
		t.Fatalf("cube size = %d want 3", k.Size(cube))
	}
	want := k.Apply(OpAnd, k.VarRef(1), k.Apply(OpAnd, k.VarRef(3), k.VarRef(5)))
	if cube != want {
		t.Fatalf("cube %v != conjunction %v", cube, want)
	}
	if k.CubeRef(nil) != node.One {
		t.Fatal("empty cube should be One")
	}
}

func TestEvalQuick(t *testing.T) {
	// Property: Eval of an AND of two vars equals the conjunction of the
	// assignment bits.
	k := NewKernel(Options{Levels: 8, Engine: EngineDF})
	f := k.Apply(OpAnd, k.VarRef(2), k.VarRef(5))
	fn := func(bits uint8) bool {
		assign := make([]bool, 8)
		for i := range assign {
			assign[i] = bits>>i&1 == 1
		}
		return k.Eval(f, assign) == (assign[2] && assign[5])
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}
