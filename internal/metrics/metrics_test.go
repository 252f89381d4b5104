package metrics

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter %d, want %d", got, workers*per)
	}
	if reg.Counter("c") != c {
		t.Error("Counter must return the same instance per name")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for j := int64(0); j < per; j++ {
				h.Observe(base + j)
			}
		}(int64(i))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count %d, want %d", s.Count, workers*per)
	}
	if s.Min != 0 || s.Max != per-1+workers-1 {
		t.Errorf("min/max %d/%d", s.Min, s.Max)
	}
	var want int64
	for i := int64(0); i < workers; i++ {
		for j := int64(0); j < per; j++ {
			want += i + j
		}
	}
	if s.Sum != want {
		t.Errorf("sum %d, want %d", s.Sum, want)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("g")
	g.Set(3.25)
	if v := g.Value(); v != 3.25 {
		t.Fatalf("gauge %v", v)
	}
	g.Add(0.75)
	if v := g.Value(); v != 4 {
		t.Fatalf("after Add %v", v)
	}
	g.Add(-4)
	if v := g.Value(); v != 0 {
		t.Fatalf("after negative Add %v", v)
	}
	var nilG *Gauge
	nilG.Add(1) // nil-safe like every other instrument
}

// TestGaugeAddConcurrent: Add is a CAS loop, so concurrent adjustments —
// fabric workers registering and departing — never lose an update the way
// a racy Value+Set pair would.
func TestGaugeAddConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("workers")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				g.Add(1)
				g.Add(-1)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != workers*per {
		t.Errorf("gauge %v after concurrent adds, want %d", v, workers*per)
	}
}

func TestSpanNesting(t *testing.T) {
	var now int64
	reg := NewRegistryWithClock(func() int64 { now += 1000; return now })
	root := reg.Span("flow")
	root.Start()                 // 1000
	child := root.Child("inner") // no clock read
	child.Start()                // 2000
	grand := child.Child("leaf")
	grand.Start() // 3000
	grand.End()   // 4000 → 1000ns
	child.End()   // 5000 → 3000ns
	child.Start() // 6000
	child.End()   // 7000 → +1000 = 4000ns
	root.End()    // 8000 → 7000ns

	if d := root.DurationNS(); d != 7000 {
		t.Errorf("root %d", d)
	}
	if d := child.DurationNS(); d != 4000 || child.Laps() != 2 {
		t.Errorf("child %dns %d laps", d, child.Laps())
	}
	if d := grand.DurationNS(); d != 1000 {
		t.Errorf("grand %d", d)
	}
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "inner" {
		t.Fatalf("children %v", kids)
	}
	if reg.Span("flow") != root || root.Child("inner") != child {
		t.Error("spans must be memoized by name")
	}
}

func TestSpanOverlappingLaps(t *testing.T) {
	// Overlapping Start/End pairs (parallel sweep workers sharing a stage
	// span) must count wall-clock time with ≥1 active lap exactly once.
	var now int64
	reg := NewRegistryWithClock(func() int64 { now += 1; return now })
	s := reg.Span("stage")
	s.Start() // t=1 (active 0→1: lap starts)
	s.Start() // no clock read
	s.End()   // still active
	s.End()   // t=2 → 1ns
	if d := s.DurationNS(); d != 1 {
		t.Errorf("overlapped duration %d, want 1", d)
	}
	if s.Laps() != 1 {
		t.Errorf("laps %d, want 1", s.Laps())
	}
}

// TestSpanSiblingExclusive: sibling stages running at the same instant
// (parallel points in warm-up and measure) split that instant evenly, so
// the children sum to at most the parent at any parallelism; each child's
// own-lap wall clock stays available as BusyNS.
func TestSpanSiblingExclusive(t *testing.T) {
	var now int64
	reg := NewRegistryWithClock(func() int64 { return now })
	flow := reg.Span("flow")
	a, b := flow.Child("warmup"), flow.Child("measure")
	flow.Start() // t=0
	a.Start()    // t=0: a alone
	now = 5
	a.Start() // a's second, overlapping lap: still one participant
	now = 10
	b.Start() // t=10: a and b share
	now = 20
	a.End()
	now = 30
	a.End() // t=30: b alone
	now = 40
	b.End()
	now = 50
	flow.End()

	if d := flow.DurationNS(); d != 50 {
		t.Errorf("flow %d, want 50", d)
	}
	// a: 10 alone + 20/2 shared; b: 20/2 shared + 10 alone.
	for _, tc := range []struct {
		s          *Span
		excl, busy int64
	}{{a, 20, 30}, {b, 20, 30}} {
		if d := tc.s.DurationNS(); d != tc.excl {
			t.Errorf("%s exclusive %d, want %d", tc.s.Name(), d, tc.excl)
		}
		if d := tc.s.BusyNS(); d != tc.busy {
			t.Errorf("%s busy %d, want %d", tc.s.Name(), d, tc.busy)
		}
	}
	if a.Laps() != 1 {
		t.Errorf("overlapping laps of one span must merge: %d laps", a.Laps())
	}
	snap := flow.Snapshot()
	var sum int64
	for _, c := range snap.Children {
		sum += c.NS
		if c.BusyNS != 30 {
			t.Errorf("%s snapshot busy_ns %d, want 30", c.Name, c.BusyNS)
		}
	}
	if sum != 40 || sum > snap.NS {
		t.Errorf("children sum %d, want 40 (≤ flow %d)", sum, snap.NS)
	}

	// Three siblings over an indivisible stretch: the remainder is handed
	// out so the shares still sum exactly to the elapsed time.
	now = 0
	root := NewRegistryWithClock(func() int64 { return now }).Span("r")
	kids := []*Span{root.Child("x"), root.Child("y"), root.Child("z")}
	root.Start()
	for _, k := range kids {
		k.Start()
	}
	now = 10
	for _, k := range kids {
		k.End()
	}
	root.End()
	var total int64
	for _, k := range kids {
		total += k.DurationNS()
	}
	if total != 10 {
		t.Errorf("three-way split sums to %d, want 10", total)
	}
}

func TestSpanConcurrent(t *testing.T) {
	reg := NewRegistry()
	s := reg.Span("flow")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := s.Child("stage")
				c.Start()
				c.End()
			}
		}(i)
	}
	wg.Wait()
	if got := len(s.Children()); got != 1 {
		t.Fatalf("%d children, want 1", got)
	}
}

func TestNilSafety(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Add(1)
	reg.Gauge("x").Set(1)
	reg.Histogram("x").Observe(1)
	reg.Time("x")()
	sp := reg.Span("x")
	sp.Start()
	sp.Child("y").End()
	if sp.DurationNS() != 0 || reg.Counter("x").Value() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if s := reg.Snapshot(); len(s.Counters) != 0 || len(s.Spans) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestTime(t *testing.T) {
	var now int64
	reg := NewRegistryWithClock(func() int64 { now += 500; return now })
	stop := reg.Time("op_ns")
	stop()
	s := reg.Histogram("op_ns").Snapshot()
	if s.Count != 1 || s.Sum != 500 {
		t.Fatalf("timer snapshot %+v", s)
	}
}

func TestObserveDuration(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("d").ObserveDuration(3 * time.Millisecond)
	if s := reg.Histogram("d").Snapshot(); s.Sum != 3_000_000 {
		t.Fatalf("sum %d", s.Sum)
	}
}

// goldenRegistry builds a fixed scenario on a deterministic clock.
func goldenRegistry() *Registry {
	var now int64
	reg := NewRegistryWithClock(func() int64 { now += 1_000_000; return now })
	reg.Counter("boom.retired").Add(1000)
	reg.Counter("boom.cycles").Add(2500)
	reg.Gauge("simpoint.k").Set(4)
	reg.Gauge("core.sweep.worker.00.util").Set(0.875)
	h := reg.Histogram("core.sweep.queue_wait_ns")
	h.Observe(1500)
	h.Observe(2500)
	h.Observe(0)

	flow := reg.Span("flow")
	flow.Start() // 1ms
	prof := flow.Child("profile")
	prof.Start() // 2ms
	prof.End()   // 3ms
	sel := flow.Child("select")
	sel.Start()  // 4ms
	sel.End()    // 5ms
	prof.Start() // 6ms
	prof.End()   // 7ms
	flow.End()   // 8ms
	return reg
}

func TestRenderGolden(t *testing.T) {
	for _, tc := range []struct {
		file  string
		write func(*Registry, *bytes.Buffer) error
	}{
		{"registry.txt", func(r *Registry, b *bytes.Buffer) error { return r.WriteText(b) }},
		{"registry.json", func(r *Registry, b *bytes.Buffer) error { return r.WriteJSON(b) }},
		{"registry.prom", func(r *Registry, b *bytes.Buffer) error { return r.WritePrometheus(b) }},
	} {
		var buf bytes.Buffer
		if err := tc.write(goldenRegistry(), &buf); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run `go test ./internal/metrics -update` to regenerate)", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", tc.file, buf.Bytes(), want)
		}
	}
}

// TestEmptyHistogramSummary: Summary() of an untouched (or nil) histogram
// must be all zeros — in particular the 0/0 mean is defined as 0, not NaN,
// so the digest can always be marshaled.
func TestEmptyHistogramSummary(t *testing.T) {
	var nilHist *Histogram
	if s := nilHist.Summary(); s != (Summary{}) {
		t.Errorf("nil histogram Summary = %+v, want zero", s)
	}
	reg := NewRegistry()
	s := reg.Histogram("untouched").Summary()
	if s != (Summary{}) {
		t.Errorf("untouched histogram Summary = %+v, want zero", s)
	}
	if math.IsNaN(s.Mean) {
		t.Error("empty-histogram mean is NaN")
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("empty Summary does not marshal: %v", err)
	}
	if !json.Valid(b) {
		t.Fatalf("invalid JSON: %s", b)
	}
}

func TestHistogramSummaryValues(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	h.Observe(2)
	h.Observe(4)
	s := h.Summary()
	want := Summary{Count: 2, Sum: 6, Min: 2, Max: 4, Mean: 3}
	if s != want {
		t.Errorf("Summary = %+v, want %+v", s, want)
	}
}

// TestWriteJSONNonFiniteGauge: a single poisoned gauge (NaN or ±Inf, e.g.
// a ratio whose denominator collapsed to zero) must not kill the whole
// JSON emission — encoding/json rejects non-finite numbers, so the render
// layer clamps them to 0.
func TestWriteJSONNonFiniteGauge(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("poisoned.nan").Set(math.NaN())
	reg.Gauge("poisoned.inf").Set(math.Inf(1))
	reg.Gauge("fine").Set(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON with a NaN gauge: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if snap.Gauges["poisoned.nan"] != 0 || snap.Gauges["poisoned.inf"] != 0 {
		t.Errorf("non-finite gauges not clamped: %v", snap.Gauges)
	}
	if snap.Gauges["fine"] != 0.5 {
		t.Errorf("finite gauge altered: %v", snap.Gauges["fine"])
	}
}

// TestWritePrometheusSanitizesNames: registry names use dots and slashes;
// the exposition must map them onto [a-zA-Z0-9_:].
func TestWritePrometheusSanitizesNames(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.sweep.tasks").Inc()
	reg.Gauge("core.sweep.worker.00.util").Set(math.NaN()) // must render 0
	reg.Histogram("core.sweep.queue_wait_ns").Observe(1024)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE core_sweep_tasks counter\ncore_sweep_tasks 1\n",
		"core_sweep_worker_00_util 0\n",
		"core_sweep_queue_wait_ns_count 1\n",
		"core_sweep_queue_wait_ns_sum 1024\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("exposition leaks NaN:\n%s", out)
	}
}
