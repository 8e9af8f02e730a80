// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per invocation, checks every output it measures, and prints as
// its last line one JSON object with the run's metrics:
//
//	bash perfbench/run.sh --workload circuit-build --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md in this directory for why each exists and which
// metric each per-layer number should move):
//
//	circuit-build  mult-11 built through netlist.Build at 2 and 1 workers and Seq
//	bdd-ops        Exists/Forall/Restrict/Compose/ITE on mult-11 middle bits
//	session-serve  two closed-loop clients on one in-process server session
//
// Every workload's result line carries the same metrics, named in
// BENCHMARK.json. With --trace 0 they are the end-to-end metrics, measured
// with tracing off; each workload maps them onto its own operations (see
// endToEnd). With --trace 1 they are the per-layer metrics: each layer is
// loaded by one workload, so the traced run profiles all three workloads
// for a share of the time each, and the named one also pairs its traced
// calls with untraced ones to report the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	traceOut string
	// paired makes a traced run also time every traced call untraced,
	// back to back, and report trace.overhead_frac.
	paired bool
}

// endToEnd is the result line of a --trace 0 run: metric name to unit.
// The names are shared by the workloads; each maps them onto its own
// operations:
//
//	             circuit-build      bdd-ops             session-serve
//	op_p50_ms    2-worker build     Par step (2 wkrs)   /apply round trip
//	ref_p50_ms   Seq build          DF step             read round trip
//	ops_per_s    builds/s           steps/s             requests/s
//	peak_mb      build high-water   footprint, results  session high-water
//	ok_frac      1 - failed/attempted
//	setup_s      median of repeated set-ups
var endToEnd = map[string]string{
	"op_p50_ms":  "ms",
	"ref_p50_ms": "ms",
	"ops_per_s":  "1/s",
	"peak_mb":    "MB",
	"ok_frac":    "ratio",
	"setup_s":    "s",
}

// perLayer is the result line of a --trace 1 run: metric name to unit.
var perLayer = map[string]string{
	"core.expand_s":                 "s",
	"core.reduce_s":                 "s",
	"core.gc_s":                     "s",
	"core.gc_count":                 "count",
	"core.shannon_ops":              "count",
	"core.dup_work_ratio":           "ratio",
	"core.steals":                   "count",
	"core.stolen_ops":               "count",
	"core.stalls":                   "count",
	"unique.lock_wait_s":            "s",
	"unique.lock_reduce_ratio":      "ratio",
	"cache.hit_ratio":               "ratio",
	"node.peak_bytes":               "bytes",
	"node.live_nodes":               "count",
	"bfbdd.exists_ms":               "ms",
	"bfbdd.compose_ms":              "ms",
	"bfbdd.restrict_ms":             "ms",
	"bfbdd.ite_ms":                  "ms",
	"bfbdd.par_df_ratio":            "ratio",
	"server.handler_self_ms":        "ms",
	"server.queue_wait_ms":          "ms",
	"server.batch_ms":               "ms",
	"server.coalesce_ops_per_batch": "ops/batch",
	"server.rejected":               "count",
	"core.kernel_build_ms":          "ms",
	"wal.commit_p50_ms":             "ms",
	"wal.commit_p99_ms":             "ms",
	"wal.records_per_write":         "ratio",
	"wal.fsyncs":                    "count",
	"compiled.eval_ns_per_assign":   "ns",
	"trace.overhead_frac":           "ratio",
}

// checkMetrics reports a metric of want that the report lacks or carries
// in another unit, or a metric the report has beyond want.
func checkMetrics(got map[string]metric, want map[string]string) error {
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return fmt.Errorf("metric %s is in %s, not %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s has no value", name)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return nil
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// timingDetail describes the samples behind a reported timing.
type timingDetail struct {
	N         int     `json:"n"`
	Median    float64 `json:"median"`
	TailPct   float64 `json:"tail_pct,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
}

// report collects a workload's metrics and the detail printed beside them.
// extra holds numbers printed by name and unit but left out of the result
// line, because on a shared 2-core machine their run-to-run spread is wider
// than any bound a regression gate can use.
type report struct {
	metrics map[string]metric
	extra   map[string]metric
	timings map[string]timingDetail
	notes   map[string]any
	spans   []span
	tally   tally
}

func newReport() *report {
	return &report{
		metrics: make(map[string]metric),
		extra:   make(map[string]metric),
		timings: make(map[string]timingDetail),
		notes:   make(map[string]any),
	}
}

// set records a derived metric.
func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// timing records the median of xs as a metric, with its sample count and
// its tail percentile.
func (r *report) timing(name, unit string, xs []float64) {
	r.set(name, unit, median(xs))
	r.detail(name, xs)
}

// extraTiming is timing for a number printed but kept off the result line.
func (r *report) extraTiming(name, unit string, xs []float64) {
	r.extra[name] = metric{Value: median(xs), Unit: unit}
	r.detail(name, xs)
}

// merge adds sub, the report of workload name, to r: metrics, extras and
// timings as they are, notes under the workload's name, spans renumbered
// after r's.
func (r *report) merge(name string, sub *report) {
	for k, v := range sub.metrics {
		r.metrics[k] = v
	}
	for k, v := range sub.extra {
		r.extra[k] = v
	}
	for k, v := range sub.timings {
		r.timings[k] = v
	}
	r.notes[name] = sub.notes
	off := len(r.spans)
	for _, s := range sub.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
	r.tally.add(sub.tally)
}

// detail records the sample count and tail of xs without a metric.
func (r *report) detail(name string, xs []float64) {
	d := timingDetail{N: len(xs), Median: median(xs)}
	if p, v, ok := tail(xs); ok {
		d.TailPct, d.TailValue = p, v
	}
	r.timings[name] = d
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(config) (*report, error){
	"circuit-build": runCircuitBuild,
	"bdd-ops":       runBDDOps,
	"session-serve": runSessionServe,
}

// profileOrder is the order the traced run profiles the workloads in.
var profileOrder = []string{"circuit-build", "bdd-ops", "session-serve"}

// runTraced is the --trace 1 run. Each workload loads some of the layers
// and every result line carries every per-layer metric, so it runs each
// workload traced for an equal share of the measuring time and merges the
// per-layer metrics; only the named workload runs paired and so reports
// trace.overhead_frac.
func runTraced(cfg config) (*report, error) {
	rep := newReport()
	share := max(cfg.seconds/time.Duration(len(profileOrder)), time.Second)
	for _, name := range profileOrder {
		sub := cfg
		sub.workload, sub.seconds, sub.paired = name, share, name == cfg.workload
		r, err := workloads[name](sub)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.merge(name, r)
	}
	return rep, nil
}

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: circuit-build, bdd-ops or session-serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced comparison and reports per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/perfbench-trace-<workload>.json)")
	flag.Parse()
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = traceFlag == 1
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench-trace-"+cfg.workload+".json")
	}

	env := environment()
	printJSON("env", env)
	cpu0 := readCPUStat()
	want := endToEnd
	if cfg.traced {
		run, want = runTraced, perLayer
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if cfg.traced {
		if err := writeTrace(cfg.traceOut, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		rep.notes["trace_file"] = cfg.traceOut
		rep.notes["layer_self_time"] = selfByName(rep.spans)
	}
	// Steal is time the hypervisor ran someone else while this guest
	// wanted the CPU; a run with a high share was measured on a busy host.
	if cpu1 := readCPUStat(); cpu0 != nil && cpu1 != nil && cpu1[0] > cpu0[0] {
		rep.notes["host_steal_frac"] = float64(cpu1[1]-cpu0[1]) / float64(cpu1[0]-cpu0[0])
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		rep.notes["max_rss_kb"] = ru.Maxrss
	}
	printTable(rep)
	printJSON("detail", map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "traced": cfg.traced,
		"timings": rep.timings, "notes": rep.notes, "extra": rep.extra,
		"wrong": rep.tally.wrong,
	})
	if err := checkMetrics(rep.metrics, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	correct := rep.tally.wrong == 0 && rep.tally.attempted > 0
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.tally.attempted, rep.tally.failed, rep.metrics})
	fmt.Println(string(line))
	if !correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong results out of %d\n", rep.tally.wrong, rep.tally.attempted)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// printJSON prints one labelled JSON line of the report.
func printJSON(label string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", label, err)
		return
	}
	fmt.Printf("%s %s\n", label, data)
}

// printTable prints the metrics one per line, with the sample count and
// tail percentile of each timing.
func printTable(rep *report) {
	names := make([]string, 0, len(rep.metrics)+len(rep.extra))
	for n := range rep.metrics {
		names = append(names, n)
	}
	for n := range rep.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, gated := rep.metrics[n]
		if !gated {
			m = rep.extra[n]
		}
		line := fmt.Sprintf("%-32s %14.6g %-10s", n, m.Value, m.Unit)
		if d, ok := rep.timings[n]; ok {
			line += fmt.Sprintf(" n=%d", d.N)
			if d.TailPct > 0 {
				line += fmt.Sprintf(" p%g=%.6g", d.TailPct, d.TailValue)
			}
		}
		if !gated {
			line += " (not gated)"
		}
		fmt.Println(line)
	}
}

// environment describes the host the numbers were measured on.
func environment() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// readCPUStat returns the host-wide total and steal jiffies from
// /proc/stat, or nil where that file is unavailable.
func readCPUStat() []uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var total, steal uint64
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return nil
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return []uint64{total, steal}
}

// untilDeadline reports whether another round should start: until
// minRounds have run, then while the measuring time lasts.
func untilDeadline(start time.Time, d time.Duration, rounds, minRounds int) bool {
	return rounds < minRounds || time.Since(start) < d
}

// setupRepeats is how many times a workload's set-up runs per invocation;
// setup_s is the median.
const setupRepeats = 5

// circuitSetupRepeats is setupRepeats for circuit-build, whose set-up
// takes milliseconds; more repeats keep its median steady.
const circuitSetupRepeats = 15

// opsSetupRepeats is setupRepeats for bdd-ops, whose set-up builds the
// middle bits twice and costs seconds.
const opsSetupRepeats = 3

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
