package core

import (
	"fmt"

	"repro/internal/journal"
	"repro/internal/sampling"
)

// The campaign cell graph: the paper's two-level DAG. Each workload owns
// one profile cell (the config-independent profile → select → checkpoint
// chain), and that cell gates one measure cell per design point, so the
// expensive chain runs once per workload no matter how many design points
// share it. Runner.Sweep executes the graph with in-process workers;
// internal/fabric's coordinator leases the same cells to remote workers,
// which execute each one through Runner.RunCell — the same supervisor and
// cell body Sweep's workers use. Both schedulers claim the first ready
// cell in graph order, share the failure cascade and the journal resume
// marking, and assemble the same *Sweep.

// Cell kinds; also the first segment of a cell label.
const (
	CellProfile = "profile"
	CellMeasure = "measure"
)

// CellState is a cell's position in its lifecycle.
type CellState uint8

const (
	CellPending CellState = iota // not yet claimed (or requeued)
	CellRunning                  // claimed by an executor
	CellDone
	CellFailed
)

// Cell is one node of a CellGraph. The identity fields are immutable;
// the product fields belong to whichever executor holds the cell
// (CellRunning) or finished it.
type Cell struct {
	Label    string // "profile/<wl>" or "measure/<cfg>/<wl>"
	Kind     string // CellProfile | CellMeasure
	Workload string
	Config   string // design-point name; empty for profile cells
	// Resumed marks a cell the journal lists as finished (see Resume).
	Resumed bool
	// Payload is a measure cell's canonical result bytes when it finished
	// remotely (EncodeMeasuredResult); Sweep decodes it.
	Payload []byte

	gate    int // index of the gating profile cell; -1 for profile cells
	cfg     int // index of the design point in the campaign; -1 for profile cells
	state   CellState
	profile *Profile // an in-process profile cell's product
	result  *Result  // an in-process measure cell's product
}

// CellLabel names a cell: "profile/<wl>", or "measure/<cfg>/<wl>". Journals
// and the fabric's wire protocol identify cells by this label.
func CellLabel(kind, config, workload string) string {
	if kind == CellProfile {
		return kind + "/" + workload
	}
	return kind + "/" + config + "/" + workload
}

// Stage names the flow stage a cell's failures are attributed to.
func (c *Cell) Stage() string {
	if c.Kind == CellProfile {
		return StageProfile
	}
	return StageMeasure
}

// CellGraph is one campaign's cells in graph order — every profile cell
// in workload order, then every measure cell config-major — with their
// states. It is not safe for concurrent use; executors serialize calls.
type CellGraph struct {
	camp      Campaign
	cells     []Cell
	index     map[string]int
	remaining int     // cells not yet done or failed
	head      int     // no cell before head is pending
	failures  []error // cells that failed on their own, in failure order
}

// NewCellGraph builds the graph of camp with every cell pending.
func NewCellGraph(camp Campaign) *CellGraph {
	g := &CellGraph{camp: camp, index: map[string]int{}}
	add := func(c Cell) {
		g.index[c.Label] = len(g.cells)
		g.cells = append(g.cells, c)
	}
	for _, wl := range camp.Workloads {
		add(Cell{Label: CellLabel(CellProfile, "", wl), Kind: CellProfile, Workload: wl, gate: -1, cfg: -1})
	}
	for ci, cfg := range camp.Configs {
		for i, wl := range camp.Workloads {
			add(Cell{Label: CellLabel(CellMeasure, cfg.Name, wl), Kind: CellMeasure,
				Workload: wl, Config: cfg.Name, gate: i, cfg: ci})
		}
	}
	g.remaining = len(g.cells)
	return g
}

// Len returns the number of cells.
func (g *CellGraph) Len() int { return len(g.cells) }

// Cell returns cell i.
func (g *CellGraph) Cell(i int) *Cell { return &g.cells[i] }

// Lookup returns the index of the cell labelled label, or -1.
func (g *CellGraph) Lookup(label string) int {
	if i, ok := g.index[label]; ok {
		return i
	}
	return -1
}

// State returns cell i's state.
func (g *CellGraph) State(i int) CellState { return g.cells[i].state }

// Ready reports whether cell i can be claimed: pending, with its gating
// profile cell done.
func (g *CellGraph) Ready(i int) bool {
	c := &g.cells[i]
	return c.state == CellPending && (c.gate < 0 || g.cells[c.gate].state == CellDone)
}

// Next returns the first ready cell in graph order, or -1.
func (g *CellGraph) Next() int {
	for g.head < len(g.cells) && g.cells[g.head].state != CellPending {
		g.head++
	}
	for i := g.head; i < len(g.cells); i++ {
		if g.Ready(i) {
			return i
		}
	}
	return -1
}

// Claim moves cell i to CellRunning.
func (g *CellGraph) Claim(i int) { g.cells[i].state = CellRunning }

// Done marks cell i finished; its product fields must already be set.
func (g *CellGraph) Done(i int) {
	g.settle(i, CellDone)
}

// Fail marks cell i failed with err and cascades the failure to its
// pending dependents (a measure cell can never run without its profile).
// The cascaded cells carry no error of their own — the dependency's
// failure names the cause — and are returned so executors can account
// for them.
func (g *CellGraph) Fail(i int, err error) (cascaded []int) {
	g.settle(i, CellFailed)
	g.failures = append(g.failures, err)
	for j := range g.cells {
		if g.cells[j].gate == i && g.cells[j].state == CellPending {
			g.settle(j, CellFailed)
			cascaded = append(cascaded, j)
		}
	}
	return cascaded
}

func (g *CellGraph) settle(i int, to CellState) {
	if c := &g.cells[i]; c.state != CellDone && c.state != CellFailed {
		g.remaining--
	}
	g.cells[i].state = to
}

// Requeue returns a running or done cell to CellPending, discarding any
// product: a stolen lease, a regranted failure, a result revoked as
// suspect.
func (g *CellGraph) Requeue(i int) {
	c := &g.cells[i]
	if c.state == CellDone {
		g.remaining++
	}
	c.state = CellPending
	c.profile, c.result, c.Payload = nil, nil, nil
	g.head = min(g.head, i)
}

// Finished reports whether every cell is done or failed.
func (g *CellGraph) Finished() bool { return g.remaining == 0 }

// Resume marks every cell the journals at paths list as finished for
// campaign id: Resumed is set and Payload holds the journaled bytes.
// Executors decide what a resumed cell costs — the sweep engine replays it
// through the artifact cache without re-journaling it, the fabric serves
// it from its payload — so the cells stay pending here. Returns the
// number of cells marked and the journals' count of failed cells.
func (g *CellGraph) Resume(id string, paths ...string) (resumed, failed int) {
	rp := journal.Read(id, paths...)
	for label, payload := range rp.Cells {
		if i := g.Lookup(label); i >= 0 {
			g.cells[i].Resumed = true
			g.cells[i].Payload = payload
			resumed++
		}
	}
	return resumed, rp.Failed
}

// Sweep assembles the graph into the campaign's *Sweep: the profiles of
// done profile cells that ran in-process, and the results of done measure
// cells — decoded from Payload for cells that finished remotely. Missing entries
// mark failed (or never-run) cells. The error folds the cell failures,
// then any undecodable payloads, then extra (e.g. a cancellation): nil
// when there are none; the first one when !keepGoing, with a nil Sweep;
// otherwise a *SweepErrors next to the partial Sweep.
func (g *CellGraph) Sweep(flow FlowConfig, spec sampling.Spec, keepGoing bool, extra ...error) (*Sweep, error) {
	camp := g.camp
	sw := &Sweep{
		Flow:        flow,
		Scale:       camp.Scale,
		Sampling:    spec,
		Names:       append([]string(nil), camp.Workloads...),
		ConfigNames: camp.ConfigNames(),
		Profiles:    map[string]*Profile{},
		Results:     map[string]map[string]*Result{},
	}
	for _, name := range sw.ConfigNames {
		sw.Results[name] = map[string]*Result{}
	}
	errs := append([]error(nil), g.failures...)
	for i := range g.cells {
		c := &g.cells[i]
		switch {
		case c.state != CellDone:
		case c.Kind == CellProfile:
			if c.profile != nil {
				sw.Profiles[c.Workload] = c.profile
			}
		case c.result != nil:
			sw.Results[c.Config][c.Workload] = c.result
		default:
			res := &Result{Workload: c.Workload, ConfigName: c.Config, Mode: "simpoint"}
			if err := DecodeMeasuredResult(c.Payload, res); err != nil {
				errs = append(errs, fmt.Errorf("core: decoding %s: %w", c.Label, err))
				continue
			}
			sw.Results[c.Config][c.Workload] = res
		}
	}
	errs = append(errs, extra...)
	switch {
	case len(errs) == 0:
		return sw, nil
	case !keepGoing:
		return nil, errs[0]
	}
	return sw, &SweepErrors{Errs: errs}
}
