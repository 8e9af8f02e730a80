package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"bfbdd/internal/core"
	"bfbdd/internal/harness"
	"bfbdd/internal/netlist"
	"bfbdd/internal/order"
	"bfbdd/internal/stats"
)

// circuitName is the paper's own experiment at a size 2 cores build in
// seconds: every output of a C6288-style 11-bit multiplier.
const circuitName = "mult-11"

// evalVectors is how many seeded input vectors each built output is
// evaluated on against the netlist.
const evalVectors = 256

// buildConfig is one engine configuration of the circuit-build workload.
type buildConfig struct {
	name    string
	engine  core.Engine
	workers int
}

// buildConfigs are the paper's Fig 7 rows that 2 cores can run for real: the
// parallel engine at 2 and 1 workers and the sequential partial
// breadth-first engine ("Seq").
var buildConfigs = []buildConfig{
	{"w2", core.EnginePar, 2},
	{"w1", core.EnginePar, 1},
	{"seq", core.EnginePBF, 0},
}

// kernelOptions mirrors harness.Run's configuration of one experiment.
func kernelOptions(c *netlist.Circuit, bc buildConfig) core.Options {
	opts := core.Options{
		Levels:        c.NumInputs(),
		Engine:        bc.engine,
		Workers:       bc.workers,
		EvalThreshold: 8192,
		Stealing:      true,
		GCGrowth:      2.0,
	}
	if bc.workers == 0 {
		opts.GCGrowth = 1.6
	}
	return opts
}

// circuitInputs is the set-up of the circuit-build workload: the netlist,
// its DFS variable order, and the reference outputs of the seeded vectors.
type circuitInputs struct {
	circ    *netlist.Circuit
	levels  []int
	vectors [][]bool // by level
	want    [][]bool // [vector][output]
}

func setupCircuit(rng *rand.Rand) (*circuitInputs, error) {
	circ, err := harness.MakeCircuit(circuitName)
	if err != nil {
		return nil, err
	}
	in := &circuitInputs{circ: circ, levels: order.Compute(circ, order.DFS, 0)}
	for v := 0; v < evalVectors; v++ {
		byPos := make([]bool, circ.NumInputs())
		byLevel := make([]bool, circ.NumInputs())
		for pos := range byPos {
			byPos[pos] = rng.Intn(2) == 1
			byLevel[in.levels[pos]] = byPos[pos]
		}
		in.vectors = append(in.vectors, byLevel)
		in.want = append(in.want, circ.Eval(byPos))
	}
	return in, nil
}

// buildSample is what one build measured.
type buildSample struct {
	cfg       buildConfig
	elapsed   time.Duration
	st        stats.Worker
	lockWait  time.Duration
	gcCount   uint64
	peakBytes uint64
	liveNodes uint64
	outNodes  int
	evalOK    bool
}

// buildOnce builds every output on a fresh kernel, the path harness.Run
// times, then checks each output against the netlist on the seeded
// vectors. Spans are recorded when rec is non-nil.
func buildOnce(in *circuitInputs, bc buildConfig, rec *recorder) (buildSample, error) {
	s := buildSample{cfg: bc}
	// Every build starts from an empty heap with its memory returned to
	// the OS, as in a fresh process, so no build inherits the previous
	// one's pages.
	debug.FreeOSMemory()
	root := rec.start(0, "circuit/"+bc.name)
	defer rec.end(root)

	sp := rec.start(root, "core.new-kernel")
	k := core.NewKernel(kernelOptions(in.circ, bc))
	rec.end(sp)
	defer k.Close()

	sp = rec.start(root, "netlist.build")
	t0 := time.Now()
	res, err := netlist.Build(k, in.circ, in.levels)
	s.elapsed = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return s, fmt.Errorf("build %s: %w", bc.name, err)
	}
	defer res.Release()

	s.st = k.TotalStats()
	for l := 0; l < k.Levels(); l++ {
		s.lockWait += k.Table(l).LockWait()
	}
	s.gcCount = k.Memory().GCCount
	s.peakBytes = k.Memory().PeakBytes
	s.liveNodes = k.NumNodes()

	sp = rec.start(root, "verify")
	refs := res.Refs()
	s.outNodes = k.SizeMulti(refs)
	s.evalOK = true
	for v, vec := range in.vectors {
		for o, r := range refs {
			if k.Eval(r, vec) != in.want[v][o] {
				s.evalOK = false
			}
		}
	}
	rec.end(sp)
	return s, nil
}

// runCircuitBuild measures whole-circuit construction, the paper's Figs
// 7/8 experiment. Each round builds once per configuration, starting at a
// seeded rotation so no configuration always runs first.
func runCircuitBuild(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := newReport()

	// Set-up, repeated and reported as a median: generating the netlist,
	// its order and reference outputs, and creating one kernel per
	// configuration.
	var setups []float64
	for i := 0; i < circuitSetupRepeats; i++ {
		t0 := time.Now()
		in, err := setupCircuit(rng)
		if err != nil {
			return nil, err
		}
		for _, bc := range buildConfigs {
			core.NewKernel(kernelOptions(in.circ, bc)).Close()
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// measure runs rounds for d, and at least minRounds. Within a round
	// every configuration builds once per recorder, back to back, so a
	// traced build is paired with an untraced one under the same
	// conditions. out[i] holds the builds made under recs[i].
	measure := func(d time.Duration, minRounds int, recs []*recorder) ([]map[string][]buildSample, error) {
		out := make([]map[string][]buildSample, len(recs))
		for i := range out {
			out[i] = make(map[string][]buildSample)
		}
		start := time.Now()
		for round := 0; untilDeadline(start, d, round, minRounds); round++ {
			in, err := setupCircuit(rng)
			if err != nil {
				return nil, err
			}
			first := rng.Intn(len(buildConfigs))
			var seqNodes int
			var samples []buildSample
			var which []int
			for i := range buildConfigs {
				bc := buildConfigs[(first+i)%len(buildConfigs)]
				for ri, rec := range recs {
					s, err := buildOnce(in, bc, rec)
					if err != nil {
						return nil, err
					}
					samples = append(samples, s)
					which = append(which, ri)
					if bc.name == "seq" {
						seqNodes = s.outNodes
					}
				}
			}
			for i, s := range samples {
				if s.evalOK && s.outNodes == seqNodes {
					rep.tally.ok()
				} else {
					rep.tally.mismatch()
				}
				out[which[i]][s.cfg.name] = append(out[which[i]][s.cfg.name], s)
			}
		}
		return out, nil
	}

	if !cfg.traced {
		// Three rounds at least, so each timing is a median of three
		// builds even when a slow host fits only two in the time.
		start := time.Now()
		runs, err := measure(cfg.seconds, 3, []*recorder{nil})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		by := runs[0]
		w2, w1, seq := elapsed(by["w2"]), elapsed(by["w1"]), elapsed(by["seq"])
		rep.timing("op_p50_ms", "ms", scaled(w2, 1e3))
		rep.timing("ref_p50_ms", "ms", scaled(seq, 1e3))
		rep.set("ops_per_s", "1/s", float64(len(w2)+len(w1)+len(seq))/wall)
		rep.set("peak_mb", "MB", median(field(by["w2"], func(s buildSample) float64 { return float64(s.peakBytes) / 1e6 })))
		rep.set("ok_frac", "ratio", rep.tally.okFrac())
		rep.timing("setup_s", "s", setups)
		rep.extraTiming("build_s", "s", w2)
		rep.extraTiming("build_w1_s", "s", w1)
		rep.extraTiming("build_seq_s", "s", seq)
		rep.extra["speedup_w2"] = metric{median(seq) / median(w2), "x"}
		rep.detail("speedup_w2", ratios(seq, w2))
		rep.notes["output_nodes"] = by["seq"][0].outNodes
		return rep, nil
	}

	rec := newRecorder()
	recs := []*recorder{rec}
	if cfg.paired {
		recs = []*recorder{nil, rec}
	}
	runs, err := measure(cfg.seconds, 1, recs)
	if err != nil {
		return nil, err
	}
	rep.spans = rec.closed()
	// With pairs, the counters come from the untraced builds.
	plain := runs[0]
	if cfg.paired {
		rep.timing("trace.overhead_frac", "ratio", overheads(elapsed(runs[1]["w2"]), elapsed(plain["w2"])))
	}

	w2, seq := plain["w2"], plain["seq"]
	f := func(xs []buildSample, g func(buildSample) float64) float64 { return median(field(xs, g)) }
	ops := func(s buildSample) float64 { return float64(s.st.Ops) }
	reduce := func(s buildSample) float64 { return s.st.PhaseTime(stats.PhaseReduction).Seconds() }
	rep.set("core.expand_s", "s", f(w2, func(s buildSample) float64 { return s.st.PhaseTime(stats.PhaseExpansion).Seconds() }))
	rep.set("core.reduce_s", "s", f(w2, reduce))
	rep.set("core.gc_s", "s", f(w2, func(s buildSample) float64 { return gcTime(s.st).Seconds() }))
	rep.set("core.gc_count", "count", f(w2, func(s buildSample) float64 { return float64(s.gcCount) }))
	rep.set("core.shannon_ops", "count", f(w2, ops))
	rep.set("core.dup_work_ratio", "ratio", f(w2, ops)/f(seq, ops))
	rep.set("core.steals", "count", f(w2, func(s buildSample) float64 { return float64(s.st.Steals) }))
	rep.set("core.stolen_ops", "count", f(w2, func(s buildSample) float64 { return float64(s.st.StolenOps) }))
	rep.set("core.stalls", "count", f(w2, func(s buildSample) float64 { return float64(s.st.Stalls) }))
	rep.set("unique.lock_wait_s", "s", f(w2, func(s buildSample) float64 { return s.lockWait.Seconds() }))
	rep.set("unique.lock_reduce_ratio", "ratio", f(w2, func(s buildSample) float64 { return s.lockWait.Seconds() / reduce(s) }))
	rep.set("cache.hit_ratio", "ratio", f(w2, func(s buildSample) float64 {
		return float64(s.st.CacheHits) / float64(s.st.CacheHits+s.st.Ops)
	}))
	rep.set("node.peak_bytes", "bytes", f(w2, func(s buildSample) float64 { return float64(s.peakBytes) }))
	rep.set("node.live_nodes", "count", f(w2, func(s buildSample) float64 { return float64(s.liveNodes) }))
	return rep, nil
}

func gcTime(st stats.Worker) time.Duration {
	return st.PhaseTime(stats.PhaseGCMark) + st.PhaseTime(stats.PhaseGCFix) + st.PhaseTime(stats.PhaseGCRehash)
}

func elapsed(xs []buildSample) []float64 {
	return field(xs, func(s buildSample) float64 { return s.elapsed.Seconds() })
}

// scaled returns xs multiplied by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func field(xs []buildSample, g func(buildSample) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = g(x)
	}
	return out
}

// overheads pairs traced[i]/plain[i] - 1: the cost of tracing in each pair.
func overheads(traced, plain []float64) []float64 {
	out := ratios(traced, plain)
	for i := range out {
		out[i]--
	}
	return out
}

// ratios pairs a[i]/b[i] for the rounds both have.
func ratios(a, b []float64) []float64 {
	n := min(len(a), len(b))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] / b[i]
	}
	return out
}
