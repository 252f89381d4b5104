package metrics

import "sync"

// Span is one node of a hierarchical wall-clock tracer. A span
// accumulates time over any number of Start/End laps, so a pipeline stage
// that runs in disjoint stretches (e.g. per-checkpoint warm-up) still
// reports one total. Start/End pairs may overlap across goroutines: a
// span's busy time counts wall-clock time during which at least one of its
// own laps is active, which for serial callers is exactly the elapsed time.
//
// Sibling spans share their parent's wall clock. A child span's duration
// is its exclusive share: each instant is split evenly among the sibling
// spans active at that instant, so the children of one parent always sum
// to at most the parent's time, at any parallelism. The overlapped view —
// a child's busy time, counting instants shared with siblings in full —
// is reported separately (BusyNS). A root span's duration is its busy time.
//
// All methods are nil-safe no-ops.
type Span struct {
	name   string
	now    func() int64
	parent *Span
	mu     *sync.Mutex // one per tree: sibling accounting spans several nodes

	children map[string]*Span
	order    []*Span
	active   int   // concurrent Start()s not yet End()ed
	lapStart int64 // clock at the moment active went 0→1
	busyNS   int64 // accumulated across completed laps
	laps     int64
	exclNS   int64 // exclusive share of the parent's time, credited so far
	kidsOn   int   // children with a lap running
	kidsMark int64 // clock up to which running children have been credited
}

func newSpan(name string, now func() int64) *Span {
	return &Span{name: name, now: now, mu: new(sync.Mutex)}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child returns the named child span, creating it on first use. The child
// is not started.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[name]
	if c == nil {
		c = &Span{name: name, now: s.now, parent: s, mu: s.mu}
		if s.children == nil {
			s.children = map[string]*Span{}
		}
		s.children[name] = c
		s.order = append(s.order, c)
	}
	return c
}

// credit splits the wall clock since the last sibling transition evenly
// among the running children. The integer remainder goes to the first
// running children in creation order, so the shares sum exactly to the
// elapsed time.
func (s *Span) credit(now int64) {
	if s.kidsOn > 0 {
		elapsed := now - s.kidsMark
		share, rem := elapsed/int64(s.kidsOn), elapsed%int64(s.kidsOn)
		for _, c := range s.order {
			if c.active == 0 {
				continue
			}
			c.exclNS += share
			if rem > 0 {
				c.exclNS++
				rem--
			}
		}
	}
	s.kidsMark = now
}

// Start begins a lap. Nested/overlapping Starts are reference-counted.
func (s *Span) Start() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		s.lapStart = s.now()
		if p := s.parent; p != nil {
			p.credit(s.lapStart)
			p.kidsOn++
		}
	}
	s.active++
}

// End finishes the most recent Start. When the last overlapping lap ends,
// the elapsed wall-clock time is added to the span's busy total and the
// span stops sharing its parent's clock.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		return
	}
	if s.active == 1 {
		now := s.now()
		s.busyNS += now - s.lapStart
		s.laps++
		if p := s.parent; p != nil {
			p.credit(now)
			p.kidsOn--
		}
	}
	s.active--
}

// DurationNS returns the span's wall-clock nanoseconds, including the
// currently running lap if any: the exclusive share for a child span,
// the busy time for a root.
func (s *Span) DurationNS() int64 {
	if s == nil {
		return 0
	}
	if s.parent == nil {
		return s.BusyNS()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.parent.kidsOn > 0 {
		s.parent.credit(s.now())
	}
	return s.exclNS
}

// BusyNS returns the wall-clock nanoseconds during which at least one of
// the span's own laps was active, including the running lap if any.
func (s *Span) BusyNS() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.busyNS
	if s.active > 0 {
		d += s.now() - s.lapStart
	}
	return d
}

// Laps returns the number of completed laps.
func (s *Span) Laps() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.laps
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.order...)
}

// SpanSnapshot is a point-in-time view of a span subtree. NS is the
// span's duration (the exclusive share for children, see Span); BusyNS
// is its own-lap wall clock, which exceeds NS by the time it overlapped
// with running siblings.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	NS       int64          `json:"ns"`
	BusyNS   int64          `json:"busy_ns"`
	Laps     int64          `json:"laps"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot returns a consistent copy of the span subtree.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	snap := SpanSnapshot{Name: s.name, BusyNS: s.BusyNS(), Laps: s.Laps()}
	snap.NS = snap.BusyNS
	if s.parent != nil {
		snap.NS = s.DurationNS()
	}
	for _, c := range s.Children() {
		snap.Children = append(snap.Children, c.Snapshot())
	}
	return snap
}
