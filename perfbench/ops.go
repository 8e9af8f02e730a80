package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"bfbdd"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/node"
	"bfbdd/internal/order"
)

// opsBits are the mult-11 product bits the operators work on: middle
// columns of about 5k, 12k and 29k nodes under the DFS order.
var opsBits = []int{9, 10, 11}

// buildOutputs builds the selected outputs of c on m through the public
// API, gate by gate, freeing each intermediate once its last reader is
// built. Variable i of m is circuit input i.
func buildOutputs(m *bfbdd.Manager, c *netlist.Circuit, outputs []int) []*bfbdd.BDD {
	need := make([]bool, len(c.Gates))
	var mark func(int)
	mark = func(g int) {
		if need[g] {
			return
		}
		need[g] = true
		for _, f := range c.Gates[g].Fanin {
			mark(f)
		}
	}
	for _, o := range outputs {
		mark(c.Outputs[o])
	}
	readers := make([]int, len(c.Gates))
	for g, ok := range need {
		if ok {
			for _, f := range c.Gates[g].Fanin {
				readers[f]++
			}
		}
	}
	keep := make(map[int]bool)
	for _, o := range outputs {
		keep[c.Outputs[o]] = true
	}
	pos := make(map[int]int, len(c.Inputs))
	for p, g := range c.Inputs {
		pos[g] = p
	}
	val := make([]*bfbdd.BDD, len(c.Gates))
	for g, gate := range c.Gates {
		if !need[g] {
			continue
		}
		val[g] = gateBDD(m, gate, val, pos[g])
		for _, f := range gate.Fanin {
			readers[f]--
			if readers[f] == 0 && !keep[f] {
				val[f].Free()
				val[f] = nil
			}
		}
	}
	out := make([]*bfbdd.BDD, len(outputs))
	for i, o := range outputs {
		out[i] = val[c.Outputs[o]]
	}
	return out
}

// gateBDD evaluates one gate symbolically from its fan-in BDDs.
func gateBDD(m *bfbdd.Manager, g netlist.Gate, val []*bfbdd.BDD, inputPos int) *bfbdd.BDD {
	switch g.Type {
	case netlist.GateInput:
		return m.Var(inputPos)
	case netlist.GateConst0:
		return m.Zero()
	case netlist.GateConst1:
		return m.One()
	case netlist.GateNot:
		return val[g.Fanin[0]].Not()
	case netlist.GateBuf:
		return val[g.Fanin[0]].And(m.One())
	}
	fold := func(a, b *bfbdd.BDD) *bfbdd.BDD {
		switch g.Type {
		case netlist.GateAnd, netlist.GateNand:
			return a.And(b)
		case netlist.GateOr, netlist.GateNor:
			return a.Or(b)
		default:
			return a.Xor(b)
		}
	}
	acc := val[g.Fanin[0]]
	for i, f := range g.Fanin[1:] {
		next := fold(acc, val[f])
		if i > 0 {
			acc.Free()
		}
		acc = next
	}
	switch g.Type {
	case netlist.GateNand, netlist.GateNor, netlist.GateXnor:
		next := acc.Not()
		if len(g.Fanin) > 1 {
			acc.Free()
		}
		acc = next
	}
	return acc
}

// opsManager is one engine's manager holding the middle bits.
type opsManager struct {
	name string
	m    *bfbdd.Manager
	bits []*bfbdd.BDD
}

func newOpsManager(name string, c *netlist.Circuit, opts ...bfbdd.Option) *opsManager {
	m := bfbdd.New(c.NumInputs(), opts...)
	m.SetOrder(order.Compute(c, order.DFS, 0))
	return &opsManager{name: name, m: m, bits: buildOutputs(m, c, opsBits)}
}

func (o *opsManager) close() { o.m.Close() }

// opKinds are the operators the workload times. A step calls each kind
// once per bit, so every step does the same mix of work and only the
// seeded variables differ between steps.
var opKinds = []string{"exists", "forall", "restrict", "compose", "ite"}

// opStep is one seeded step: the variables every kind uses. An
// operator's cost depends on where its variables sit in the order, so
// each step draws one variable from each level band instead of leaving
// the mix to chance; that keeps step costs alike across seeds.
type opStep struct {
	cube  []int // quantified variables, one per band
	vs    []int // restricted and composed variables, one per band
	subst []int // vs[i] is composed with Var(subst[i]), from the same band
	value bool  // restriction value
	order []int // the order the kinds run in
}

// levelBands splits the variables into the top, middle and bottom third
// of the DFS order.
func levelBands(c *netlist.Circuit) [][]int {
	levels := order.Compute(c, order.DFS, 0)
	vars := make([]int, len(levels))
	for i := range vars {
		vars[i] = i
	}
	sort.Slice(vars, func(a, b int) bool { return levels[vars[a]] < levels[vars[b]] })
	n := len(vars)
	return [][]int{vars[:n/3], vars[n/3 : 2*n/3], vars[2*n/3:]}
}

func newOpStep(rng *rand.Rand, bands [][]int) opStep {
	pick := func() []int {
		out := make([]int, len(bands))
		for i, b := range bands {
			out[i] = b[rng.Intn(len(b))]
		}
		return out
	}
	return opStep{
		cube: pick(), vs: pick(), subst: pick(), value: rng.Intn(2) == 1,
		order: rng.Perm(len(opKinds)),
	}
}

// opKey names one result of a step: the kind, the bit it ran on and, for
// Restrict and Compose, which of the step's variables.
type opKey struct {
	kind     string
	bit, arg int
}

// run calls every kind on every bit of o, timing each call; ITE on bit i
// is ITE(bit i, bit i+1, bit i+2), wrapping around.
func (s opStep) run(o *opsManager, rec *recorder, parent int, perCall map[string][]float64) map[opKey]*bfbdd.BDD {
	out := make(map[opKey]*bfbdd.BDD)
	n := len(o.bits)
	call := func(key opKey, fn func() *bfbdd.BDD) {
		sp := rec.start(parent, "bfbdd."+key.kind)
		t0 := time.Now()
		r := fn()
		d := time.Since(t0)
		rec.end(sp)
		out[key] = r
		if perCall != nil {
			perCall[key.kind] = append(perCall[key.kind], ms(d))
		}
	}
	for _, i := range s.order {
		kind := opKinds[i]
		for bit, f := range o.bits {
			switch kind {
			case "exists":
				call(opKey{kind, bit, 0}, func() *bfbdd.BDD { return f.Exists(s.cube...) })
			case "forall":
				call(opKey{kind, bit, 0}, func() *bfbdd.BDD { return f.Forall(s.cube...) })
			case "restrict":
				for j, v := range s.vs {
					call(opKey{kind, bit, j}, func() *bfbdd.BDD { return f.Restrict(v, s.value) })
				}
			case "compose":
				for j, v := range s.vs {
					g := o.m.Var(s.subst[j])
					call(opKey{kind, bit, j}, func() *bfbdd.BDD { return f.Compose(v, g) })
					g.Free()
				}
			case "ite":
				call(opKey{kind, bit, 0}, func() *bfbdd.BDD { return f.ITE(o.bits[(bit+1)%n], o.bits[(bit+2)%n]) })
			}
		}
	}
	return out
}

// signature is a function's canonical structure, comparable across
// managers and engines.
func signature(b *bfbdd.BDD) []uint64 {
	return b.Manager().Kernel().CanonicalSignature([]node.Ref{b.Ref()})
}

// sameFunc reports whether a and b, possibly of different managers, are
// the same function.
func sameFunc(a, b *bfbdd.BDD) bool { return slices.Equal(signature(a), signature(b)) }

// quantByRestrict computes the quantification of f over vars from
// restrictions alone: f|v=0 OR f|v=1 per variable for Exists, AND for
// Forall. It is the reference the quantifiers are checked against.
func quantByRestrict(f *bfbdd.BDD, vars []int, exists bool) *bfbdd.BDD {
	acc := f
	for i, v := range vars {
		lo, hi := acc.Restrict(v, false), acc.Restrict(v, true)
		var next *bfbdd.BDD
		if exists {
			next = lo.Or(hi)
		} else {
			next = lo.And(hi)
		}
		lo.Free()
		hi.Free()
		if i > 0 {
			acc.Free()
		}
		acc = next
	}
	return acc
}

// runBDDOps times the operators that reach the kernel through its
// recursive paths rather than a netlist build: seeded steps of Exists and
// Forall over multi-variable cubes, Restrict, Compose and ITE, each step
// run on a 2-worker parallel manager and on a depth-first one.
func runBDDOps(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	c, err := harness.MakeCircuit(circuitName)
	if err != nil {
		return nil, err
	}
	rep := newReport()

	var par, df *opsManager
	var setups []float64
	for i := 0; i < opsSetupRepeats; i++ {
		if par != nil {
			par.close()
			df.close()
		}
		runtime.GC()
		t0 := time.Now()
		par = newOpsManager("par", c, bfbdd.WithEngine(bfbdd.EnginePar), bfbdd.WithWorkers(2))
		df = newOpsManager("df", c, bfbdd.WithEngine(bfbdd.EngineDF))
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer par.close()
	defer df.close()
	for i := range opsBits {
		if sameFunc(par.bits[i], df.bits[i]) {
			rep.tally.ok()
		} else {
			rep.tally.mismatch()
		}
	}
	sizes := make([]int, len(opsBits))
	for i, b := range df.bits {
		sizes[i] = b.Size()
	}
	rep.notes["bit_sizes"] = sizes
	bands := levelBands(c)

	runOn := func(o *opsManager, s opStep, rec *recorder, calls map[string][]float64) (map[opKey]*bfbdd.BDD, float64) {
		root := rec.start(0, "ops/"+o.name)
		t0 := time.Now()
		res := s.run(o, rec, root, calls)
		el := time.Since(t0).Seconds()
		rec.end(root)
		return res, el
	}
	freeAll := func(res map[opKey]*bfbdd.BDD) {
		for _, b := range res {
			b.Free()
		}
	}

	// parMB collects the parallel manager's footprint, in MB, with one
	// step's results live.
	var parMB []float64

	// measure runs steps for d. A step runs every call on the parallel
	// manager once per recorder, so a traced run is paired with an
	// untraced one, and once on the depth-first manager; the two managers
	// alternate going first. Results are checked, freed and collected
	// outside the timed calls, so every run starts from a cold cache.
	// parS[i] holds the step times under recs[i]; perCall collects the
	// per-call times of the first.
	measure := func(d time.Duration, recs []*recorder, perCall map[string][]float64) (parS [][]float64, dfS []float64) {
		parS = make([][]float64, len(recs))
		start := time.Now()
		for step := 0; untilDeadline(start, d, step, 1); step++ {
			s := newOpStep(rng, bands)
			var parRes, dfRes map[opKey]*bfbdd.BDD
			runDF := func() {
				var el float64
				dfRes, el = runOn(df, s, recs[len(recs)-1], nil)
				dfS = append(dfS, el)
			}
			if step%2 == 1 {
				runDF()
			}
			for ri, rec := range recs {
				if parRes != nil {
					freeAll(parRes)
					par.m.GC()
				}
				calls := perCall
				if ri > 0 {
					calls = nil
				}
				var el float64
				parRes, el = runOn(par, s, rec, calls)
				parS[ri] = append(parS[ri], el)
			}
			parMB = append(parMB, float64(par.m.Stats().MemBytes)/1e6)
			if step%2 == 0 {
				runDF()
			}
			for key, r := range parRes {
				if sameFunc(r, dfRes[key]) {
					rep.tally.ok()
				} else {
					rep.tally.mismatch()
				}
			}
			for bit, f := range df.bits {
				for _, q := range []string{"exists", "forall"} {
					ref := quantByRestrict(f, s.cube, q == "exists")
					if ref.Equal(dfRes[opKey{q, bit, 0}]) {
						rep.tally.ok()
					} else {
						rep.tally.mismatch()
					}
					ref.Free()
				}
			}
			freeAll(parRes)
			freeAll(dfRes)
			par.m.GC()
			df.m.GC()
		}
		return parS, dfS
	}

	if !cfg.traced {
		start := time.Now()
		parS, dfS := measure(cfg.seconds, []*recorder{nil}, nil)
		wall := time.Since(start).Seconds()
		rep.timing("op_p50_ms", "ms", scaled(parS[0], 1e3))
		rep.timing("ref_p50_ms", "ms", scaled(dfS, 1e3))
		rep.set("ops_per_s", "1/s", float64(len(parS[0])+len(dfS))/wall)
		rep.timing("peak_mb", "MB", parMB)
		rep.set("ok_frac", "ratio", rep.tally.okFrac())
		rep.timing("setup_s", "s", setups)
		rep.extraTiming("ops_s", "s", parS[0])
		rep.extraTiming("ops_df_s", "s", dfS)
		return rep, nil
	}

	perCall := make(map[string][]float64)
	rec := newRecorder()
	recs := []*recorder{rec}
	if cfg.paired {
		recs = []*recorder{nil, rec}
	}
	parS, dfS := measure(cfg.seconds, recs, perCall)
	rep.spans = rec.closed()
	if cfg.paired {
		rep.timing("trace.overhead_frac", "ratio", overheads(parS[1], parS[0]))
	}
	for _, kind := range []string{"exists", "restrict", "compose", "ite"} {
		rep.timing("bfbdd."+kind+"_ms", "ms", perCall[kind])
	}
	rep.set("bfbdd.par_df_ratio", "ratio", median(parS[0])/median(dfS))
	return rep, nil
}
