package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"bfbdd/internal/wal"
)

// walConfig is the durability configuration the WAL tests run under:
// persistence on, periodic checkpoints off (tests checkpoint explicitly),
// fsync per op so in-process "crashes" (directory copies) lose nothing.
func walConfig(dir string) Config {
	return Config{CheckpointDir: dir, CheckpointInterval: -1, WALSync: "always"}
}

// sigOf fetches a handle's canonical signature over the wire — the
// cross-process equality oracle.
func sigOf(t *testing.T, base, sid string, h uint64) string {
	t.Helper()
	out := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/query",
		map[string]any{"kind": "signature", "f": h}, http.StatusOK)
	s, _ := out["signature"].(string)
	if s == "" {
		t.Fatalf("no signature in %v", out)
	}
	return s
}

// buildMixedWorkload drives one of every mutating operation through the
// HTTP surface and returns the client's ledger: every acknowledged
// handle mapped to its signature.
func buildMixedWorkload(t *testing.T, base, sid string) map[uint64]string {
	t.Helper()
	v0 := mkVar(t, base, sid, 0, false)
	v1 := mkVar(t, base, sid, 1, false)
	nv2 := mkVar(t, base, sid, 2, true)
	one := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/const",
		map[string]any{"value": true}, http.StatusOK))
	and := apply(t, base, sid, "and", v0, v1)
	or := apply(t, base, sid, "or", and, nv2)

	bout := mustCall(t, "POST", base+"/v1/sessions/"+sid+"/batch",
		map[string]any{"ops": []map[string]any{
			{"op": "xor", "f": or, "g": v0},
			{"op": "nand", "f": or, "g": v1},
		}}, http.StatusOK)
	bhandles, _ := bout["handles"].([]any)
	if len(bhandles) != 2 {
		t.Fatalf("batch answered %v", bout)
	}
	bx := uint64(bhandles[0].(float64))
	bn := uint64(bhandles[1].(float64))

	ite := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/ite",
		map[string]any{"f": or, "g": bx, "h": bn}, http.StatusOK))
	not := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/not",
		map[string]any{"f": ite}, http.StatusOK))
	ex := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/quantify",
		map[string]any{"kind": "exists", "f": or, "vars": []int{0, 2}}, http.StatusOK))
	re := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/restrict",
		map[string]any{"f": or, "var": 1, "value": true}, http.StatusOK))
	co := handleOf(t, mustCall(t, "POST", base+"/v1/sessions/"+sid+"/compose",
		map[string]any{"f": or, "var": 0, "g": ex}, http.StatusOK))

	// Free two handles, then collect: both must replay faithfully.
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/free",
		map[string]any{"handles": []uint64{bx, bn}}, http.StatusOK)
	mustCall(t, "POST", base+"/v1/sessions/"+sid+"/gc", nil, http.StatusOK)

	ledger := make(map[uint64]string)
	for _, h := range []uint64{v0, v1, nv2, one, and, or, ite, not, ex, re, co} {
		ledger[h] = sigOf(t, base, sid, h)
	}
	return ledger
}

// assertRecovered boots a fresh server over a copy of the durability
// directory and checks the session came back with exactly the ledger's
// handles, each carrying the same signature the original acknowledged.
func assertRecovered(t *testing.T, cfg Config, dir, sid string, ledger map[uint64]string) {
	t.Helper()
	cfg2 := cfg
	cfg2.CheckpointDir = copyDurabilityDir(t, dir)
	srv2, ts2 := testServer(t, cfg2)
	_ = srv2
	base2 := ts2.URL

	mustCall(t, "GET", base2+"/v1/sessions/"+sid, nil, http.StatusOK)
	stats := mustCall(t, "GET", base2+"/v1/sessions/"+sid+"/stats", nil, http.StatusOK)
	if n := int(stats["handles"].(float64)); n != len(ledger) {
		t.Fatalf("recovered %d handles, want %d", n, len(ledger))
	}
	for h, want := range ledger {
		if got := sigOf(t, base2, sid, h); got != want {
			t.Errorf("handle %d: signature %s after recovery, want %s", h, got, want)
		}
	}
}

// TestWALTailRecoveryWithoutCheckpoint is the pure-journal path: no
// checkpoint ever ran, so recovery rebuilds the session solely from the
// creation record and the operation tail.
func TestWALTailRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	_, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	ledger := buildMixedWorkload(t, ts.URL, sid)
	if len(ledger) == 0 {
		t.Fatal("empty ledger")
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}

// TestWALCheckpointPlusTailRecovery is the combined path: a checkpoint
// commits mid-history (rotating the log and truncating covered
// segments), more operations follow, and recovery must splice snapshot
// and tail back together.
func TestWALCheckpointPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})

	ledger := make(map[uint64]string)
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)
	a := apply(t, ts.URL, sid, "and", v0, v1)
	for _, h := range []uint64{v0, v1, a} {
		ledger[h] = sigOf(t, ts.URL, sid, h)
	}

	srv.CheckpointNow()
	if latestSnapshot(dir, sid) == "" {
		t.Fatal("checkpoint did not commit")
	}
	// The checkpoint rotated the log; the pre-checkpoint segment is
	// covered and was truncated away.
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Base == 0 {
		t.Fatalf("segments after checkpoint = %+v, want one rotated segment", segs)
	}

	// Journal a tail past the checkpoint.
	x := apply(t, ts.URL, sid, "xor", a, v0)
	o := apply(t, ts.URL, sid, "or", x, v1)
	ledger[x] = sigOf(t, ts.URL, sid, x)
	ledger[o] = sigOf(t, ts.URL, sid, o)

	assertRecovered(t, cfg, dir, sid, ledger)
}

// TestWALChainRejectsStaleSnapshot deletes the newest committed snapshot
// out from under its meta sidecar: the sidecar's WAL base now points
// past the best snapshot on disk, and the journal below it was truncated
// — acknowledged history is unreachable. Recovery must refuse the
// session (counting a chain reject) rather than silently serve the stale
// state.
func TestWALChainRejectsStaleSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})

	mkVar(t, ts.URL, sid, 0, false)
	srv.CheckpointNow()
	first := latestSnapshot(dir, sid)
	if first == "" {
		t.Fatal("first checkpoint missing")
	}
	mkVar(t, ts.URL, sid, 1, false)
	srv.CheckpointNow()
	second := latestSnapshot(dir, sid)
	if second == "" || second == first {
		t.Fatalf("second checkpoint did not supersede: %q vs %q", first, second)
	}

	crash := copyDurabilityDir(t, dir)
	// The first snapshot was swept by the second commit; resurrect a
	// stale one by renaming the newest away... simplest faithful
	// corruption: delete the newest snapshot. The sidecar still chains
	// from the second checkpoint's sequence.
	if err := os.Remove(latestSnapshot(crash, sid)); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.CheckpointDir = crash
	srv2, ts2 := testServer(t, cfg2)
	mustCall(t, "GET", ts2.URL+"/v1/sessions/"+sid, nil, http.StatusNotFound)
	if got := srv2.metrics.wal.ChainRejects.Load(); got == 0 {
		t.Error("chain reject not counted")
	}
	if got := srv2.metrics.sessionsRecovered.Load(); got != 0 {
		t.Errorf("sessionsRecovered = %d, want 0", got)
	}
}

// TestWALRecoveryHonorsCloseRecord: a journaled close must keep recovery
// from resurrecting the session even when its files survive (the crash
// window between the close ack and the purge).
func TestWALRecoveryHonorsCloseRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	mkVar(t, ts.URL, sid, 0, false)

	// Stop the server cleanly (files stay), then forge the crash window:
	// append the close record the delete path would have journaled right
	// before the purge that never happened.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	sess := struct{ seq uint64 }{}
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err=%v", segs, err)
	}
	for _, sg := range segs {
		st, err := wal.ScanSegmentFile(sg.Path, func(wal.Entry) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if st.LastSeq > sess.seq {
			sess.seq = st.LastSeq
		}
	}
	lg, err := wal.Open(wal.Dir(dir), sid, sess.seq, wal.Options{Policy: wal.SyncAlways, Epoch: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(wal.CloseRec{}); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := cfg
	cfg2.CheckpointDir = dir
	_, ts2 := testServer(t, cfg2)
	mustCall(t, "GET", ts2.URL+"/v1/sessions/"+sid, nil, http.StatusNotFound)
}

// TestRestoreEndpointDurability: a session restored from a client
// snapshot is acknowledged only after a synchronous checkpoint, so a
// crash immediately after the 201 must still recover it.
func TestRestoreEndpointDurability(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	_, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)
	a := apply(t, ts.URL, sid, "and", v0, v1)
	wantSig := sigOf(t, ts.URL, sid, a)

	// Export the session and restore it under a fresh id.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sid+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	rout := mustCallRaw(t, ts.URL+"/v1/sessions/restore", snap, http.StatusCreated)
	rinfo, _ := rout["info"].(map[string]any)
	rid, _ := rinfo["session"].(string)
	if rid == "" {
		t.Fatalf("restore answered %v", rout)
	}
	// Mutate the restored session past its restore checkpoint.
	rv := mkVar(t, ts.URL, rid, 2, false)
	rSig := sigOf(t, ts.URL, rid, rv)

	cfg2 := cfg
	cfg2.CheckpointDir = copyDurabilityDir(t, dir)
	_, ts2 := testServer(t, cfg2)
	if got := sigOf(t, ts2.URL, rid, a); got != wantSig {
		t.Errorf("restored handle %d: signature %s, want %s", a, got, wantSig)
	}
	if got := sigOf(t, ts2.URL, rid, rv); got != rSig {
		t.Errorf("post-restore mutation: signature %s, want %s", got, rSig)
	}
}

// TestConcurrentApplyVsCheckpoint races live mutations against
// checkpoint-triggered rotation and truncation (run under -race for the
// interleaving check), then proves recovery sees every acknowledged
// operation regardless of which checkpoint each one landed around.
func TestConcurrentApplyVsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	const mutations = 60
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			srv.CheckpointNow()
		}
	}()
	handles := make([]uint64, 0, mutations)
	for i := 0; i < mutations; i++ {
		op := []string{"and", "or", "xor"}[i%3]
		handles = append(handles, apply(t, ts.URL, sid, op, v0, v1))
	}
	wg.Wait()

	ledger := map[uint64]string{v0: sigOf(t, ts.URL, sid, v0), v1: sigOf(t, ts.URL, sid, v1)}
	for _, h := range handles {
		ledger[h] = sigOf(t, ts.URL, sid, h)
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}

// readAll drains a snapshot response.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// mustCallRaw posts an opaque body (a snapshot stream) and decodes the
// JSON response.
func mustCallRaw(t *testing.T, url string, body []byte, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: got %d want %d (%v)", url, resp.StatusCode, wantCode, out)
	}
	return out
}

// TestBatchBudgetPartialRecovers: the operations a budget-aborted batch
// completed are acknowledged, so they are journaled and survive a crash —
// recovery rebuilds them under the handles the 413 reported.
func TestBatchBudgetPartialRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	base, sid, live := batchBudgetPartial(t, cfg)
	ledger := make(map[uint64]string, len(live))
	for _, h := range live {
		ledger[h] = sigOf(t, base, sid, h)
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}
