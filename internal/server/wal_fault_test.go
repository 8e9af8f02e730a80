//go:build faultinject

package server

import (
	"net/http"
	"slices"
	"testing"

	"bfbdd/internal/faultinject"
	"bfbdd/internal/wal"
)

// TestWALAppendFailureRefusesOperation is the write-ahead contract under
// a failing disk, for every mutating route: an operation whose journal
// append fails must be refused (500) and leave the session as if it never
// ran — no handle bound, nothing freed, nothing collected, session not
// poisoned — and the session must keep serving once the disk heals.
// Retrying the refused request gets exactly the handles the refused one
// would have had. Recovery then reproduces the acknowledged operations.
func TestWALAppendFailureRefusesOperation(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	base := ts.URL + "/v1/sessions/" + sid
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)
	v2 := mkVar(t, ts.URL, sid, 2, false)
	sess, err := srv.reg.get(sid)
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		name, path string
		body       any
		freed      []uint64 // handles the route releases once acknowledged
	}{
		{name: "vars", path: "/vars", body: map[string]any{"index": 3}},
		{name: "const", path: "/const", body: map[string]any{"value": true}},
		{name: "apply", path: "/apply", body: map[string]any{"op": "and", "f": v0, "g": v1}},
		{name: "batch", path: "/batch", body: map[string]any{"ops": []map[string]any{
			{"op": "or", "f": v0, "g": v1}, {"op": "xor", "f": v1, "g": v2}}}},
		{name: "ite", path: "/ite", body: map[string]any{"f": v0, "g": v1, "h": v2}},
		{name: "not", path: "/not", body: map[string]any{"f": v0}},
		{name: "quantify", path: "/quantify", body: map[string]any{"kind": "forall", "f": v0, "vars": []int{0}}},
		{name: "restrict", path: "/restrict", body: map[string]any{"f": v1, "var": 1, "value": false}},
		{name: "compose", path: "/compose", body: map[string]any{"f": v0, "var": 0, "g": v2}},
		{name: "free", path: "/free", body: map[string]any{"handles": []uint64{v2}}, freed: []uint64{v2}},
		{name: "gc", path: "/gc"},
	}
	live := []uint64{v0, v1, v2}
	next := v2 + 1
	for i, rt := range routes {
		// Reset zeroes the per-point call counters (earlier appends
		// already visited WALAppend), so FailFirst(1) hits exactly the
		// route's own append.
		faultinject.Reset()
		faultinject.Arm(faultinject.WALAppend, faultinject.FailFirst(1))
		code, out := call(t, "POST", base+rt.path, rt.body)
		faultinject.Reset()
		if code != http.StatusInternalServerError {
			t.Fatalf("%s: journal-failed op answered %d (%v), want 500", rt.name, code, out)
		}
		if got := srv.metrics.wal.AppendErrors.Load(); got != uint64(i+1) {
			t.Fatalf("%s: AppendErrors = %d, want %d", rt.name, got, i+1)
		}
		if sess.isPoisoned() {
			t.Fatalf("%s: refused journal append poisoned the session", rt.name)
		}
		// A refused free released nothing: its handles still answer.
		for _, h := range rt.freed {
			sigOf(t, ts.URL, sid, h)
		}

		// The healed retry is acknowledged under the handle numbers the
		// refused attempt would have had.
		out = mustCall(t, "POST", base+rt.path, rt.body, http.StatusOK)
		var got []uint64
		if h, ok := out["handle"].(float64); ok {
			got = append(got, uint64(h))
		}
		hs, _ := out["handles"].([]any)
		for _, h := range hs {
			got = append(got, uint64(h.(float64)))
		}
		for _, h := range got {
			if h != next {
				t.Fatalf("%s: handle after rollback = %d, want %d (got %v)", rt.name, h, next, got)
			}
			next++
		}
		live = append(live, got...)
		live = slices.DeleteFunc(live, func(h uint64) bool { return slices.Contains(rt.freed, h) })
	}

	ledger := make(map[uint64]string, len(live))
	for _, h := range live {
		ledger[h] = sigOf(t, ts.URL, sid, h)
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}

// TestWALRotateCrashWindow kills the checkpoint's log rotation: the
// snapshot still commits, the un-rotated segment stays active, and a
// crash-restart must lose nothing — recovery replays the journaled tail
// from whichever segment layout the failure left behind.
func TestWALRotateCrashWindow(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	faultinject.Arm(faultinject.WALRotate, faultinject.FailNth(1))
	srv.CheckpointNow()
	faultinject.Reset()
	if latestSnapshot(dir, sid) == "" {
		t.Fatal("checkpoint did not commit despite benign rotate failure")
	}
	// Rotation failed: the original segment is still the active one.
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].Base != 0 {
		t.Fatalf("segments after failed rotate = %+v, want the base-0 segment", segs)
	}

	// Mutate past the checkpoint, then crash.
	a := apply(t, ts.URL, sid, "xor", v0, v1)
	ledger := map[uint64]string{
		v0: sigOf(t, ts.URL, sid, v0),
		v1: sigOf(t, ts.URL, sid, v1),
		a:  sigOf(t, ts.URL, sid, a),
	}
	assertRecovered(t, cfg, dir, sid, ledger)
}

// TestWALTruncateCrashWindow kills the post-commit truncation: covered
// segments survive on disk, and recovery must skip their already-
// snapshotted records rather than double-apply or lose anything.
func TestWALTruncateCrashWindow(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	srv, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 8})
	v0 := mkVar(t, ts.URL, sid, 0, false)
	v1 := mkVar(t, ts.URL, sid, 1, false)

	faultinject.Arm(faultinject.WALTruncate, faultinject.FailNth(1))
	srv.CheckpointNow()
	faultinject.Reset()
	if latestSnapshot(dir, sid) == "" {
		t.Fatal("checkpoint did not commit despite benign truncate failure")
	}
	// Truncation failed mid-checkpoint: the covered pre-checkpoint
	// segment AND the rotated fresh one both remain.
	segs, err := wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments after failed truncate = %+v, want covered + active", segs)
	}

	a := apply(t, ts.URL, sid, "or", v0, v1)
	ledger := map[uint64]string{
		v0: sigOf(t, ts.URL, sid, v0),
		v1: sigOf(t, ts.URL, sid, v1),
		a:  sigOf(t, ts.URL, sid, a),
	}
	assertRecovered(t, cfg, dir, sid, ledger)

	// The next successful checkpoint sweeps the leftover segment.
	srv.CheckpointNow()
	segs, err = wal.ListSegments(wal.Dir(dir), sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segments after healed checkpoint = %+v, want just the active one", segs)
	}
}

// TestWALSyncFailureBreaksLog: under -wal-sync=always a failed fsync
// means the group's durability is unknown; the log must latch broken and
// refuse every later operation rather than let acknowledged and
// recoverable state diverge silently.
func TestWALSyncFailureBreaksLog(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	dir := t.TempDir()
	cfg := walConfig(dir)
	_, ts := testServer(t, cfg)
	sid := createSession(t, ts.URL, SessionOptions{Vars: 4})
	mkVar(t, ts.URL, sid, 0, false)

	faultinject.Reset() // zero WALSync's counter from earlier appends
	faultinject.Arm(faultinject.WALSync, faultinject.FailFirst(1))
	code, _ := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/vars", map[string]any{"index": 1})
	faultinject.Reset()
	if code != http.StatusInternalServerError {
		t.Fatalf("sync-failed op answered %d, want 500", code)
	}
	// The log is broken: every further mutation is refused even though
	// the fault is gone.
	code, out := call(t, "POST", ts.URL+"/v1/sessions/"+sid+"/vars", map[string]any{"index": 2})
	if code != http.StatusInternalServerError {
		t.Fatalf("op on broken log answered %d (%v), want 500", code, out)
	}
}
