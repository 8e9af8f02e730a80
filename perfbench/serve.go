package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bfbdd"
	"bfbdd/internal/node"
	"bfbdd/internal/server"
)

// Session-serve traffic. Two closed-loop clients share one session: each
// client's next request needs the handle the previous reply returned, so
// a client only sends when its last request is answered.
const (
	serveVars      = 20  // session variables
	serveClients   = 2   // closed-loop clients, no more than the 2 cores the benchmark assumes
	writeShare     = 0.7 // share of requests that are /apply or /free
	poolMax        = 24  // live handles a client keeps before freeing
	freeChunk      = 8   // handles one /free releases
	operandNodes   = 48  // results larger than this are not reused as operands
	funcTerms      = 12  // AND terms of the published function
	evalBatch      = 16  // assignments per /v1/funcs/{fid}/eval request
	checkSample    = 16  // handles per client whose signature is checked at the end
	traceRingSize  = 1 << 15
	compiledRounds = 9 // timed EvalBatch calls for compiled.eval_ns_per_assign
)

// applyOps are the binary operators the write traffic draws from.
var applyOps = []string{"and", "or", "xor", "nand", "nor", "xnor", "diff", "implies"}

func localApply(op string, f, g *bfbdd.BDD) *bfbdd.BDD {
	switch op {
	case "and":
		return f.And(g)
	case "or":
		return f.Or(g)
	case "xor":
		return f.Xor(g)
	case "nand":
		return f.Nand(g)
	case "nor":
		return f.Nor(g)
	case "xnor":
		return f.Xnor(g)
	case "diff":
		return f.Diff(g)
	default:
		return f.Implies(g)
	}
}

// wireSignature is the server's "signature" query computed locally: the
// canonical signature of f hashed with FNV-64a.
func wireSignature(f *bfbdd.BDD) string {
	h := fnv.New64a()
	var word [8]byte
	for _, v := range f.Manager().Kernel().CanonicalSignature([]node.Ref{f.Ref()}) {
		binary.LittleEndian.PutUint64(word[:], v)
		_, _ = h.Write(word[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// httpClient talks to the in-process server over loopback.
type httpClient struct {
	base   string
	hc     *http.Client
	traced bool
}

// errStatus is a non-2xx reply.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and decodes a 2xx JSON reply into out. It returns
// the trace id the server assigned when the request was traced.
func (c *httpClient) do(method, path string, in, out any) (string, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return "", err
		}
		body = bytes.NewReader(data)
	}
	url := c.base + path
	if c.traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	tid := resp.Header.Get("X-Bfbdd-Trace")
	if resp.StatusCode/100 != 2 {
		return tid, &errStatus{resp.StatusCode, string(bytes.TrimSpace(data))}
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return tid, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return tid, nil
}

// scrape reads /metrics.
func (c *httpClient) scrape() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return promSample(resp.Body)
}

// serveEnv is one in-process server with a session, its variables and a
// published function, plus the local reference of that function.
type serveEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	c      *httpClient
	sid    string
	vars   []uint64 // handle of variable i
	fid    string
	ref    *bfbdd.Manager
	fn     *bfbdd.BDD
	refMu  sync.Mutex // serializes the clients' evaluations of fn
}

// startServe starts a server with the bfbdd-serve defaults and a
// checkpoint directory, so writes go through the WAL at its default
// interval sync, then creates the session and publishes the read-path
// function. The function is seeded: an OR of funcTerms random 3-variable
// AND terms.
func startServe(rng *rand.Rand, ringSize int) (*serveEnv, error) {
	dir, err := os.MkdirTemp(".bench_build", "perfbench-serve-")
	if err != nil {
		return nil, err
	}
	dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir}
	e.srv = server.New(server.Config{
		CheckpointDir:      dir,
		CheckpointInterval: time.Minute,
		SpillDir:           filepath.Join(dir, "spill"),
		TraceRingSize:      ringSize,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, err
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.c = &httpClient{
		base: "http://" + ln.Addr().String(),
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients + 1}},
	}

	var info struct {
		Session string `json:"session"`
	}
	if _, err := e.c.do("POST", "/v1/sessions", map[string]any{"vars": serveVars, "engine": "par", "workers": 2}, &info); err != nil {
		e.stop()
		return nil, fmt.Errorf("create session: %w", err)
	}
	e.sid = info.Session
	for i := 0; i < serveVars; i++ {
		var h struct {
			Handle uint64 `json:"handle"`
		}
		if _, err := e.c.do("POST", e.path("vars"), map[string]any{"index": i}, &h); err != nil {
			e.stop()
			return nil, fmt.Errorf("create var %d: %w", i, err)
		}
		e.vars = append(e.vars, h.Handle)
	}

	e.ref = bfbdd.New(serveVars)
	var fh uint64
	for t := 0; t < funcTerms; t++ {
		vs := rng.Perm(serveVars)[:3]
		term, th := e.ref.Var(vs[0]), e.vars[vs[0]]
		for _, v := range vs[1:] {
			if th, err = e.apply("and", th, e.vars[v]); err != nil {
				e.stop()
				return nil, err
			}
			term = term.And(e.ref.Var(v))
		}
		if t == 0 {
			e.fn, fh = term, th
			continue
		}
		if fh, err = e.apply("or", fh, th); err != nil {
			e.stop()
			return nil, err
		}
		e.fn = e.fn.Or(term)
	}
	var pub struct {
		Func string `json:"func"`
	}
	if _, err := e.c.do("POST", e.path("publish"), map[string]any{"name": "perfbench-f", "handles": []uint64{fh}}, &pub); err != nil {
		e.stop()
		return nil, fmt.Errorf("publish: %w", err)
	}
	e.fid = pub.Func
	return e, nil
}

func (e *serveEnv) path(op string) string { return "/v1/sessions/" + e.sid + "/" + op }

func (e *serveEnv) apply(op string, f, g uint64) (uint64, error) {
	var r struct {
		Handle uint64 `json:"handle"`
	}
	_, err := e.c.do("POST", e.path("apply"), map[string]any{"op": op, "f": f, "g": g}, &r)
	return r.Handle, err
}

// stop shuts the server down, waits for its goroutines and removes its
// directory.
func (e *serveEnv) stop() {
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = e.hs.Shutdown(ctx)
		<-e.served
		_ = e.srv.Shutdown(ctx)
		cancel()
		e.c.hc.CloseIdleConnections()
	} else if e.srv != nil {
		_ = e.srv.Shutdown(context.Background())
	}
	if e.ref != nil {
		e.ref.Close()
	}
	_ = os.RemoveAll(e.dir)
}

// poolEntry is one live handle a client owns, with its local reference.
type poolEntry struct {
	h     uint64
	local *bfbdd.BDD
	nodes int
}

// serveClient is one closed-loop client with its own seeded generator and
// its own reference Manager mirroring every function it creates.
type serveClient struct {
	e    *serveEnv
	c    *httpClient
	rng  *rand.Rand
	ref  *bfbdd.Manager
	vars []*bfbdd.BDD
	pool []poolEntry

	// Round-trip times in ms. The two read kinds are kept apart: their
	// latencies differ, so the median of the mix would swing with the
	// seeded share of each.
	applyLat, queryLat, funcLat []float64
	writes                      int // acknowledged writes
	requests                    int
	t                           tally
	traces                      []clientTrace
}

// clientTrace is one traced request: the client's own interval and the
// server's trace id.
type clientTrace struct {
	kind       string
	start, end int64
	tid        string
}

func newServeClient(e *serveEnv, seed int64, traced bool) *serveClient {
	sc := &serveClient{
		e:   e,
		c:   &httpClient{base: e.c.base, hc: e.c.hc, traced: traced},
		rng: rand.New(rand.NewSource(seed)),
		ref: bfbdd.New(serveVars),
	}
	for i := 0; i < serveVars; i++ {
		sc.vars = append(sc.vars, sc.ref.Var(i))
	}
	return sc
}

// operand picks a small function: a variable or a small pooled result.
func (sc *serveClient) operand() (uint64, *bfbdd.BDD) {
	if len(sc.pool) > 0 && sc.rng.Intn(2) == 0 {
		p := sc.pool[sc.rng.Intn(len(sc.pool))]
		if p.nodes <= operandNodes {
			return p.h, p.local
		}
	}
	v := sc.rng.Intn(serveVars)
	return sc.e.vars[v], sc.vars[v]
}

func (sc *serveClient) assignment() []bool {
	a := make([]bool, serveVars)
	for i := range a {
		a[i] = sc.rng.Intn(2) == 1
	}
	return a
}

// timed runs one request and records its latency and outcome. check is
// called only for a 2xx reply and reports whether the reply is right.
func (sc *serveClient) timed(kind string, lat *[]float64, send func() (string, error), check func() bool) {
	t0 := time.Now()
	tid, err := send()
	t1 := time.Now()
	sc.requests++
	if lat != nil {
		*lat = append(*lat, ms(t1.Sub(t0)))
	}
	if sc.c.traced && tid != "" {
		sc.traces = append(sc.traces, clientTrace{kind, t0.UnixNano(), t1.UnixNano(), tid})
	}
	switch {
	case err != nil:
		sc.t.err()
		var es *errStatus
		if !errors.As(err, &es) {
			log.Printf("perfbench: %s: %v", kind, err)
		}
	case check():
		sc.t.ok()
	default:
		sc.t.mismatch()
	}
}

// step sends one request of the mix.
func (sc *serveClient) step() {
	if sc.rng.Float64() < writeShare {
		if len(sc.pool) >= poolMax {
			sc.free()
			return
		}
		op := applyOps[sc.rng.Intn(len(applyOps))]
		fh, fl := sc.operand()
		gh, gl := sc.operand()
		var r struct {
			Handle uint64 `json:"handle"`
			Nodes  int    `json:"nodes"`
		}
		sc.timed("apply", &sc.applyLat, func() (string, error) {
			return sc.c.do("POST", sc.e.path("apply"), map[string]any{"op": op, "f": fh, "g": gh}, &r)
		}, func() bool {
			sc.writes++
			local := localApply(op, fl, gl)
			sc.pool = append(sc.pool, poolEntry{r.Handle, local, r.Nodes})
			return local.Size() == r.Nodes
		})
		return
	}
	if sc.rng.Intn(2) == 0 {
		h, local := sc.operand()
		a := sc.assignment()
		var r struct {
			Value bool `json:"value"`
		}
		sc.timed("query-eval", &sc.queryLat, func() (string, error) {
			return sc.c.do("POST", sc.e.path("query"), map[string]any{"kind": "eval", "f": h, "assignment": a}, &r)
		}, func() bool { return r.Value == local.Eval(a) })
		return
	}
	batch := make([][]bool, evalBatch)
	for i := range batch {
		batch[i] = sc.assignment()
	}
	var r struct {
		Values []bool `json:"values"`
	}
	sc.timed("func-eval", &sc.funcLat, func() (string, error) {
		return sc.c.do("POST", "/v1/funcs/"+sc.e.fid+"/eval", map[string]any{"assignments": batch}, &r)
	}, func() bool {
		if len(r.Values) != len(batch) {
			return false
		}
		for i, a := range batch {
			if r.Values[i] != sc.e.evalRef(a) {
				return false
			}
		}
		return true
	})
}

// free releases the client's oldest handles.
func (sc *serveClient) free() {
	chunk := sc.pool[:freeChunk]
	hs := make([]uint64, len(chunk))
	for i, p := range chunk {
		hs[i] = p.h
	}
	var r struct {
		Freed int `json:"freed"`
	}
	sc.timed("free", nil, func() (string, error) {
		return sc.c.do("POST", sc.e.path("free"), map[string]any{"handles": hs}, &r)
	}, func() bool {
		sc.writes++
		return r.Freed == len(hs)
	})
	for _, p := range chunk {
		p.local.Free()
	}
	sc.pool = append(sc.pool[:0], sc.pool[freeChunk:]...)
}

// verify checks a seeded sample of the client's live handles against the
// local reference by canonical signature.
func (sc *serveClient) verify() {
	for _, i := range sc.rng.Perm(len(sc.pool))[:min(checkSample, len(sc.pool))] {
		p := sc.pool[i]
		var r struct {
			Signature string `json:"signature"`
		}
		sc.timed("signature", nil, func() (string, error) {
			return sc.c.do("POST", sc.e.path("query"), map[string]any{"kind": "signature", "f": p.h}, &r)
		}, func() bool { return r.Signature == wireSignature(p.local) })
	}
}

// evalRef evaluates the published function's reference.
func (e *serveEnv) evalRef(a []bool) bool {
	e.refMu.Lock()
	defer e.refMu.Unlock()
	return e.fn.Eval(a)
}

// serveResult is what one measuring phase observed.
type serveResult struct {
	applyLat, queryLat, funcLat []float64
	requests, writes            int
	seconds                     float64
	t                           tally
	traces                      []clientTrace
}

// load drives the session with serveClients closed-loop clients for d and
// then checks a sample of their results.
func load(e *serveEnv, seed int64, d time.Duration, traced bool) serveResult {
	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = newServeClient(e, seed*1000+int64(i), traced)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for _, sc := range clients {
		wg.Add(1)
		go func(sc *serveClient) {
			defer wg.Done()
			for time.Since(start) < d {
				sc.step()
			}
		}(sc)
	}
	wg.Wait()
	var out serveResult
	out.seconds = time.Since(start).Seconds()
	for _, sc := range clients {
		out.applyLat = append(out.applyLat, sc.applyLat...)
		out.queryLat = append(out.queryLat, sc.queryLat...)
		out.funcLat = append(out.funcLat, sc.funcLat...)
		out.requests += sc.requests
		out.writes += sc.writes
		out.traces = append(out.traces, sc.traces...)
		sc.traces = nil
		sc.verify()
		out.t.add(sc.t)
		sc.ref.Close()
	}
	return out
}

// runSessionServe measures the session server under closed-loop mixed
// traffic: writes pass admission, executor, coalescer, kernel and WAL;
// reads skip the coalescer and the WAL.
func runSessionServe(cfg config) (*report, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	rep := newReport()
	ring := 0
	if cfg.traced {
		ring = traceRingSize
	}
	var e *serveEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.stop()
		}
		t0 := time.Now()
		var err error
		if e, err = startServe(rng, ring); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.stop()

	if !cfg.traced {
		r := load(e, cfg.seed, cfg.seconds, false)
		after, err := e.c.scrape()
		if err != nil {
			return nil, err
		}
		rep.tally = r.t
		rep.set("op_p50_ms", "ms", median(r.applyLat))
		rep.detail("op_p50_ms", r.applyLat)
		// A read's reference is the mean of the two kinds' medians.
		rep.set("ref_p50_ms", "ms", (median(r.queryLat)+median(r.funcLat))/2)
		rep.extraTiming("query_eval_p50_ms", "ms", r.queryLat)
		rep.extraTiming("func_eval_p50_ms", "ms", r.funcLat)
		rep.set("ops_per_s", "1/s", float64(r.requests)/r.seconds)
		rep.set("peak_mb", "MB", family(after, "bfbdd_session_peak_bytes")/1e6)
		rep.set("ok_frac", "ratio", r.t.okFrac())
		rep.timing("setup_s", "s", setups)
		rep.extra["apply_p99_ms"] = metric{percentile(r.applyLat, 99), "ms"}
		rep.extra["read_p99_ms"] = metric{percentile(append(r.queryLat, r.funcLat...), 99), "ms"}
		return rep, nil
	}

	before, err := e.c.scrape()
	if err != nil {
		return nil, err
	}
	var plain serveResult
	d := cfg.seconds
	if cfg.paired {
		d /= 2
		plain = load(e, cfg.seed, d, false)
	}
	traced := load(e, cfg.seed+1, d, true)
	after, err := e.c.scrape()
	if err != nil {
		return nil, err
	}
	rep.tally = plain.t
	rep.tally.add(traced.t)
	if cfg.paired {
		rep.set("trace.overhead_frac", "ratio", median(traced.applyLat)/median(plain.applyLat)-1)
		rep.notes["untraced_apply_p50_ms"] = median(plain.applyLat)
		rep.notes["traced_apply_p50_ms"] = median(traced.applyLat)
	}

	// Server spans, fetched after the load so fetching does not perturb it,
	// go under the client span of their request.
	rec := newRecorder()
	byName := make(map[string][]float64) // span name -> durations, ms
	handlerSelf := []float64{}
	missing := 0
	for _, ct := range traced.traces {
		var ex struct {
			Spans []struct {
				Span        int    `json:"span"`
				Parent      int    `json:"parent"`
				Name        string `json:"name"`
				StartUnixNs int64  `json:"start_unix_ns"`
				DurationNs  int64  `json:"duration_ns"`
			} `json:"spans"`
		}
		if _, err := e.c.do("GET", "/v1/debug/traces/"+ct.tid, nil, &ex); err != nil {
			missing++
			continue
		}
		cid := rec.add(0, "client/"+ct.kind, ct.start, ct.end)
		ids := make(map[int]int, len(ex.Spans))
		var one []span
		for _, s := range ex.Spans {
			parent := cid
			if s.Parent != 0 {
				parent = ids[s.Parent]
			}
			ids[s.Span] = rec.add(parent, s.Name, s.StartUnixNs, s.StartUnixNs+s.DurationNs)
			one = append(one, span{ID: ids[s.Span], Parent: parent, Name: s.Name, Start: s.StartUnixNs, End: s.StartUnixNs + s.DurationNs})
			if ct.kind == "apply" {
				byName[s.Name] = append(byName[s.Name], float64(s.DurationNs)/1e6)
			}
		}
		if ct.kind == "apply" && len(one) > 0 {
			handlerSelf = append(handlerSelf, float64(selfTimes(one)[one[0].ID])/1e6)
		}
	}
	rep.notes["traces_missing"] = missing
	rep.timing("server.handler_self_ms", "ms", handlerSelf)
	rep.timing("server.queue_wait_ms", "ms", byName["queue-wait"])
	rep.timing("server.batch_ms", "ms", byName["batch"])
	rep.timing("core.kernel_build_ms", "ms", byName["kernel-build"])
	rep.timing("wal.commit_p50_ms", "ms", byName["wal-commit"])
	rep.set("wal.commit_p99_ms", "ms", percentile(byName["wal-commit"], 99))

	rep.set("server.coalesce_ops_per_batch", "ops/batch",
		delta(before, after, "bfbdd_coalesced_ops_total")/delta(before, after, "bfbdd_coalesced_batches_total"))
	rep.set("server.rejected", "count",
		delta(before, after, "bfbdd_http_rejected_total")+delta(before, after, "bfbdd_http_rejected_over_budget_total"))
	rep.set("wal.records_per_write", "ratio",
		delta(before, after, "bfbdd_wal_appended_records_total")/float64(plain.writes+traced.writes))
	rep.set("wal.fsyncs", "count", delta(before, after, "bfbdd_wal_fsyncs_total"))

	nsPerAssign, err := compiledEval(e, rng, rec, &rep.tally)
	if err != nil {
		return nil, err
	}
	rep.set("compiled.eval_ns_per_assign", "ns", nsPerAssign)
	rep.spans = rec.closed()
	return rep, nil
}

// compiledEval times the compiled layer alone: the published artifact,
// downloaded and loaded, evaluates batches of the size the read traffic
// sends. It returns the median time per assignment; every result is
// checked against the reference.
func compiledEval(e *serveEnv, rng *rand.Rand, rec *recorder, t *tally) (float64, error) {
	resp, err := e.c.hc.Get(e.c.base + "/v1/funcs/" + e.fid + "/download")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("download %s: HTTP %d", e.fid, resp.StatusCode)
	}
	fn, err := bfbdd.LoadCompiled(resp.Body)
	if err != nil {
		return 0, err
	}
	batch := make([][]bool, 4096)
	for i := range batch {
		batch[i] = make([]bool, serveVars)
		for v := range batch[i] {
			batch[i][v] = rng.Intn(2) == 1
		}
	}
	got := fn.EvalBatch(0, batch)
	for i, a := range batch {
		if got[i] == e.evalRef(a) {
			t.ok()
		} else {
			t.mismatch()
		}
	}
	var per []float64
	for i := 0; i < compiledRounds; i++ {
		sp := rec.start(0, "compiled.eval-batch")
		t0 := time.Now()
		for j := 0; j+evalBatch <= len(batch); j += evalBatch {
			fn.EvalBatch(0, batch[j:j+evalBatch])
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(batch)))
		rec.end(sp)
	}
	return median(per), nil
}
