package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// TestTailRule checks that the reported tail is the highest ladder
// percentile with at least ten samples above its nearest rank.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		ok    bool
		p     float64
		value float64
	}{
		{19, false, 0, 0},    // the median would have 9 above it
		{20, true, 50, 10},   // rank 10, 10 above
		{39, true, 50, 20},   // p75 rank 30 leaves 9
		{40, true, 75, 30},   // p75 rank 30 leaves 10
		{100, true, 90, 90},  // p95 rank 95 leaves 5
		{999, true, 95, 950}, // p99 rank 990 leaves 9
		{1000, true, 99, 990},
		{10000, true, 99.9, 9990},
	} {
		p, v, ok := tail(seq(c.n))
		if ok != c.ok || p != c.p || v != c.value {
			t.Errorf("tail(n=%d) = p%v %v ok=%v, want p%v %v ok=%v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestSelfTimeOverlappingChildren checks that overlapping children are
// subtracted once, that a child sticking out of its parent is clipped, and
// that grandchildren count only against their own parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // sticks out
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
		{ID: 6, Parent: 2, Name: "a2", Start: 20, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 20, 3: 30, 4: 30, 5: 10, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	var rootSelf float64
	for _, l := range selfByName(spans) {
		if l.Name == "root" {
			rootSelf = l.TotalMs
		}
	}
	if rootSelf != 40/1e6 {
		t.Errorf("selfByName root total = %v ms, want %v", rootSelf, 40/1e6)
	}
}

func TestCoveredDisjointAndNested(t *testing.T) {
	kids := []span{{Start: 0, End: 10}, {Start: 2, End: 5}, {Start: 20, End: 30}}
	if got := covered(0, 100, kids); got != 20 {
		t.Errorf("covered = %d, want 20", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Errorf("covered with no children = %d, want 0", got)
	}
}

const scrapeBefore = `# HELP bfbdd_wal_fsyncs_total WAL fsyncs.
# TYPE bfbdd_wal_fsyncs_total counter
bfbdd_wal_fsyncs_total 4
bfbdd_coalesced_ops_total 10
bfbdd_coalesced_batches_total 5
bfbdd_http_requests_total{route="POST /v1/sessions/{sid}/apply",code="200"} 7
bfbdd_http_requests_total{route="POST /v1/sessions/{sid}/free",code="200"} 1
`

const scrapeAfter = `bfbdd_wal_fsyncs_total 9
bfbdd_coalesced_ops_total 40
bfbdd_coalesced_batches_total 20
bfbdd_http_requests_total{route="POST /v1/sessions/{sid}/apply",code="200"} 27
bfbdd_http_requests_total{route="POST /v1/sessions/{sid}/free",code="200"} 3
bfbdd_http_requests_total{route="POST /v1/sessions/{sid}/apply",code="429"} 2
bfbdd_session_peak_bytes{session="s-1"} 1.5e+06
`

func TestMetricsDelta(t *testing.T) {
	before, err := promSample(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := promSample(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want float64
	}{
		{"bfbdd_wal_fsyncs_total", 5},
		{"bfbdd_http_requests_total", 24}, // every label set, a new one included
		{"bfbdd_session_peak_bytes", 1.5e6},
		{"bfbdd_missing_total", 0},
	} {
		if got := delta(before, after, c.name); got != c.want {
			t.Errorf("delta(%s) = %v, want %v", c.name, got, c.want)
		}
	}
	ratio := delta(before, after, "bfbdd_coalesced_ops_total") / delta(before, after, "bfbdd_coalesced_batches_total")
	if ratio != 2 {
		t.Errorf("ops per batch = %v, want 2", ratio)
	}
	// A family name that prefixes another must not absorb it.
	if got := family(after, "bfbdd_coalesced_ops"); got != 0 {
		t.Errorf("family(prefix) = %v, want 0", got)
	}
}

func TestMetricsMalformed(t *testing.T) {
	for _, text := range []string{
		"bfbdd_x_total\n",
		"bfbdd_x_total notanumber\n",
		"bfbdd_x_total{a=\"b\" 3\n",
	} {
		if _, err := promSample(strings.NewReader(text)); err == nil {
			t.Errorf("promSample(%q) accepted malformed input", text)
		}
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var a tally
	for i := 0; i < 7; i++ {
		a.ok()
	}
	a.err()
	a.mismatch()
	var b tally
	b.ok()
	b.err()
	a.add(b)
	if a.attempted != 11 || a.failed != 3 || a.wrong != 1 {
		t.Fatalf("tally = %+v, want attempted 11, failed 3, wrong 1", a)
	}
	if got, want := a.okFrac(), 8.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("okFrac = %v, want %v", got, want)
	}
	if (tally{}).okFrac() != 0 {
		t.Error("okFrac of nothing attempted should be 0")
	}
}

func TestCheckMetricsWantsExactlyTheManifest(t *testing.T) {
	want := map[string]string{"a_ms": "ms", "b": "count"}
	full := map[string]metric{"a_ms": {1.5, "ms"}, "b": {3, "count"}}
	if err := checkMetrics(full, want); err != nil {
		t.Fatalf("complete metrics refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"a_ms": {1.5, "ms"}},
		"wrong unit": {"a_ms": {1.5, "s"}, "b": {3, "count"}},
		"NaN":        {"a_ms": {math.NaN(), "ms"}, "b": {3, "count"}},
		"unlisted":   {"a_ms": {1.5, "ms"}, "b": {3, "count"}, "c": {1, "x"}},
	} {
		if err := checkMetrics(got, want); err == nil {
			t.Errorf("%s: checkMetrics accepted %v", name, got)
		}
	}
}

func TestMergeRenumbersSpans(t *testing.T) {
	r := newReport()
	a := newReport()
	a.spans = []span{{ID: 1, Name: "a", Start: 0, End: 10}, {ID: 2, Parent: 1, Name: "a.kid", Start: 2, End: 4}}
	a.tally.ok()
	b := newReport()
	b.spans = []span{{ID: 1, Name: "b", Start: 0, End: 6}, {ID: 2, Parent: 1, Name: "b.kid", Start: 1, End: 2}}
	b.metrics["m"] = metric{2, "ms"}
	b.tally.err()
	r.merge("a", a)
	r.merge("b", b)
	if r.spans[2].ID != 3 || r.spans[3].ID != 4 || r.spans[3].Parent != 3 || r.spans[2].Parent != 0 {
		t.Fatalf("merged spans = %+v", r.spans)
	}
	self := selfTimes(r.spans)
	if self[1] != 8 || self[3] != 5 {
		t.Errorf("self times after merge = %v, want 8 for a and 5 for b", self)
	}
	if r.metrics["m"].Value != 2 || r.tally.attempted != 2 || r.tally.failed != 1 {
		t.Errorf("merged metrics %v, tally %+v", r.metrics, r.tally)
	}
}
