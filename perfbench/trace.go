package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot ("boom.measure" → "boom").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans and counters in memory for one serial pass; they are
// written out once, at exit. It is not safe for concurrent use: the traced
// pass is serial by design, so a span's duration is host time spent in
// that call alone.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

// end closes span id and returns its duration in ns.
func (t *tracer) end(id int) int64 {
	s := &t.spans[id-1]
	s.End = t.now()
	return s.dur()
}

func (t *tracer) add(counter string, v float64) { t.counts[counter] += v }

// total sums the durations (ns) of every span with the given name.
func (t *tracer) total(name string) int64 {
	var n int64
	for _, s := range t.spans {
		if s.Name == name {
			n += s.dur()
		}
	}
	return n
}

// count returns how many spans carry the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfNS returns, per layer, the spans' duration minus the part their
// direct children cover.
func (t *tracer) selfNS() map[string]int64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.layer()] += s.dur() - child[s.ID]
	}
	return out
}

// write saves the spans and counters as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{t.spans, t.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
