// Package metrics is a lightweight, dependency-free observability layer
// for the SimPoint→power pipeline: atomic counters and gauges, histograms
// with ns-precision timers, a hierarchical span tracer, and a registry
// that renders to text and JSON.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, or *Span are no-ops (reads return zero values). Callers can
// therefore thread an optional registry through hot paths without guarding
// each call site; instrumentation disappears when no registry is attached.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically adjusted atomic int64.
type Counter struct{ v atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 level.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d atomically (a CAS loop over the float bits),
// so concurrent registrations and departures — the fabric's live-worker
// level — never lose an update the way a racy Value+Set pair would.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram tracks an int64-valued distribution (by convention
// nanoseconds, or derived rates such as KIPS) with count/sum/min/max and
// power-of-two buckets.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [65]int64 // buckets[i] counts values v with bits.Len64(v)==i; buckets[0] counts v<=0
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v > 0 {
		h.buckets[bits.Len64(uint64(v))]++
	} else {
		h.buckets[0]++
	}
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Summary is the scalar digest of a histogram: observation count, sum,
// extrema and mean. It is the shape the renderers (text, JSON, Prometheus)
// emit for a histogram when buckets are not wanted.
type Summary struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	Mean  float64
}

// Summary returns the histogram's scalar digest. An untouched (or nil)
// histogram returns the zero Summary — the mean of zero observations is
// defined as 0, never the 0/0 NaN, which would poison any JSON emission
// the digest lands in.
func (h *Histogram) Summary() Summary {
	var s Summary
	if h == nil {
		return s
	}
	h.mu.Lock()
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	h.mu.Unlock()
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// HistSnapshot is a consistent point-in-time view of a histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// Buckets maps a human-readable upper bound ("<2.048µs") to the number
	// of observations below it (power-of-two buckets, non-empty only).
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	h.mu.Lock()
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		if s.Buckets == nil {
			s.Buckets = map[string]int64{}
		}
		label := "<=0"
		if i > 0 && i < 63 {
			label = "<" + time.Duration(int64(1)<<i).String()
		} else if i >= 63 {
			label = ">=2^62"
		}
		s.Buckets[label] += n
	}
	h.mu.Unlock()
	return s
}

// Registry owns a namespace of metrics and spans. The zero value is not
// usable; construct with NewRegistry. A nil *Registry is a valid no-op
// sink: all lookups return nil instruments whose methods do nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*Span
	spanList []*Span
	now      func() int64 // clock in ns; injectable for tests
}

// NewRegistry returns a registry on the wall clock.
func NewRegistry() *Registry {
	return NewRegistryWithClock(func() int64 { return time.Now().UnixNano() })
}

// NewRegistryWithClock returns a registry reading time (in ns) from now —
// for deterministic tests.
func NewRegistryWithClock(now func() int64) *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]*Span{},
		now:      now,
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}

// Span returns the named root span, creating it on first use. The span is
// not started.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.spans[name]
	if s == nil {
		s = newSpan(name, r.now)
		r.spans[name] = s
		r.spanList = append(r.spanList, s)
	}
	r.mu.Unlock()
	return s
}

// Time starts an ns-precision timer; the returned stop function records
// the elapsed time into the named histogram.
func (r *Registry) Time(name string) func() {
	if r == nil {
		return func() {}
	}
	h := r.Histogram(name)
	start := r.now()
	return func() { h.Observe(r.now() - start) }
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
