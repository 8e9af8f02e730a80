package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder keeps the benchmark's own spans in memory. A nil recorder is
// the untraced run: every method is a no-op, so the measured code paths
// are identical apart from these calls.
type recorder struct {
	mu    sync.Mutex
	spans []span
	open  map[int]int // span id -> index in spans
}

func newRecorder() *recorder { return &recorder{open: make(map[int]int)} }

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	r.open[id] = len(r.spans) - 1
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.open[id]; ok {
		r.spans[i].End = now
		delete(r.open, id)
	}
}

// add records an already measured interval and returns its id.
func (r *recorder) add(parent int, name string, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// closed returns the finished spans.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for i, s := range r.spans {
		if _, open := r.open[i+1]; !open {
			out = append(out, s)
		}
	}
	return out
}

// layerSelf aggregates self time by span name: the total, the span count
// and the median per span, in milliseconds.
type layerSelf struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	P50Ms   float64 `json:"p50_ms"`
}

func selfByName(spans []span) []layerSelf {
	self := selfTimes(spans)
	per := make(map[string][]float64)
	for _, s := range spans {
		per[s.Name] = append(per[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]layerSelf, 0, len(per))
	for name, xs := range per {
		var total float64
		for _, x := range xs {
			total += x
		}
		out = append(out, layerSelf{Name: name, Count: len(xs), TotalMs: total, P50Ms: median(xs)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// writeTrace writes the spans of a traced run as JSON to path.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
