package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank such as
	// 99.9% of 10000 up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie above a reported tail percentile:
// with fewer, one outlier decides the number.
const minBeyond = 10

// tail picks the highest percentile of tailLadder that has at least
// minBeyond samples above its nearest rank, and its value. ok is false when
// even the median lacks that many (fewer than 20 samples).
func tail(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if n-rankOf(n, tailLadder[i]) >= minBeyond {
			return tailLadder[i], percentile(xs, tailLadder[i]), true
		}
	}
	return 0, 0, false
}

// span is one timed interval of a trace: the benchmark's own spans around
// layer calls, or a span exported by the server. Times are nanoseconds on
// any common clock.
type span struct {
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (parallel workers, concurrent requests) and may stick out of the parent;
// only the union of their intervals clipped to the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the spans'
// intervals.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// promSample parses a Prometheus text exposition into one value per series,
// keyed by the series as written (name plus label set). Comment lines are
// skipped; a malformed sample line is an error.
func promSample(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space outside the label set; label
		// values may contain spaces, so split after the closing brace.
		rest := line
		key := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unbalanced labels in %q", line)
			}
			key, rest = line[:j+1], strings.TrimSpace(line[j+1:])
		} else {
			f := strings.Fields(line)
			if len(f) < 2 {
				return nil, fmt.Errorf("metrics: no value in %q", line)
			}
			key, rest = f[0], strings.Join(f[1:], " ")
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// family sums every series of one metric family (all label sets).
func family(m map[string]float64, name string) float64 {
	var total float64
	for k, v := range m {
		base := k
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base = k[:i]
		}
		if base == name {
			total += v
		}
	}
	return total
}

// delta is a family's growth between two scrapes.
func delta(before, after map[string]float64, name string) float64 {
	return family(after, name) - family(before, name)
}

// tally counts operations attempted against the ones that failed. A
// failure is any operation that did not produce a checked, correct
// result: an error reply, a transport error, or a wrong answer. Wrong
// answers are also counted apart, because they fail the run.
type tally struct {
	attempted, failed, wrong int
}

func (t *tally) ok()         { t.attempted++ }
func (t *tally) err()        { t.attempted++; t.failed++ }
func (t *tally) mismatch()   { t.attempted++; t.failed++; t.wrong++ }
func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed; t.wrong += o.wrong }

// okFrac is the share of attempted operations that succeeded: 1 - the
// failure fraction. It is never 0 for a run that attempted anything and
// failed nothing, which keeps it a usable ratio metric.
func (t tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed)/float64(t.attempted)
}
