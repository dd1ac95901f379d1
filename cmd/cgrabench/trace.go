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

// span is one timed call into a layer, recorded from outside the layer's
// public function. Spans of one operation (a Table 2 cell, a ladder, a
// model, a service request) share a trace id; a span's parent is the
// call that caused it (0 for an operation's root).
type span struct {
	Trace    int                `json:"trace"`
	ID       int                `json:"id"`
	Parent   int                `json:"parent,omitempty"`
	Name     string             `json:"name"`
	Start    time.Duration      `json:"start_ns"`
	End      time.Duration      `json:"end_ns"`
	Status   string             `json:"status,omitempty"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op that reads no clock.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	totals map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), totals: map[string]float64{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id with an outcome and counters.
func (t *tracer) end(id int, status string, counters map[string]float64) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Status, s.Counters = now, status, counters
}

// record adds a span whose interval was measured elsewhere: a server's
// job timestamps, or the build time Map reports about itself. It
// returns the span's id.
func (t *tracer) record(trace, parent int, name string, start, end time.Time, counters map[string]float64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin), Counters: counters})
	return len(t.spans)
}

// add accumulates a named total that is not tied to one span, such as
// artifact-cache hits read from a cache's statistics.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.totals[name] += v
	t.mu.Unlock()
}

// layer aggregates the spans of one name.
type layer struct {
	calls    int
	total    time.Duration // summed span durations
	self     time.Duration // summed self times
	byStatus map[string]*layer
	counters map[string]float64
}

func (l *layer) observe(s *span, self time.Duration) {
	l.calls++
	l.total += s.End - s.Start
	l.self += self
	for k, v := range s.Counters {
		l.counters[k] += v
	}
}

func newLayer() *layer {
	return &layer{byStatus: map[string]*layer{}, counters: map[string]float64{}}
}

// layers returns per-name aggregates. A span's self time is its duration
// minus the part of its interval its children cover.
func (t *tracer) layers() map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]*span)
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], &t.spans[i])
		}
	}
	out := map[string]*layer{}
	for i := range t.spans {
		s := &t.spans[i]
		self := s.End - s.Start - covered(s, children[s.ID])
		l := out[s.Name]
		if l == nil {
			l = newLayer()
			out[s.Name] = l
		}
		l.observe(s, self)
		if s.Status != "" {
			ls := l.byStatus[s.Status]
			if ls == nil {
				ls = newLayer()
				l.byStatus[s.Status] = ls
			}
			ls.observe(s, self)
		}
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// write stores every span, plus the named totals, as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		Totals   map[string]float64 `json:"totals"`
	}{workload, seed, t.spans, t.totals}
	blob, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
