// Package fabric is the distributed sweep plane: a coordinator that
// shards a campaign's (workload × config) cells across registered
// workers, and the worker loop that leases cells, executes them with the
// ordinary core.Runner, and reports canonical result bytes back.
//
// The design leans entirely on the determinism the rest of the codebase
// already guarantees. Every cell is an isolated, bit-reproducible
// computation keyed by the campaign fingerprint, so the coordinator never
// has to arbitrate between results: a stolen cell finished twice produced
// identical bytes both times, a resumed campaign replays journal
// fragments instead of recomputing, and the merged Sweep encodes — via
// the same wall-clock-free serve.EncodeSweep — byte-identically to a
// single-node Runner.Sweep of the same campaign.
//
// Scheduling is a pull model with leases:
//
//   - Workers POST /v1/fabric/poll; the coordinator grants the first
//     runnable cell (profile cells first; measure cells gate on their
//     workload's profile cell) under a lease with a deadline.
//   - Workers heartbeat while executing; a heartbeat renews the lease. A
//     worker that dies, hangs, or partitions simply stops heartbeating,
//     the lease expires, and the next poll steals the cell back
//     ("fabric.cells_stolen") — node death degrades to extra latency,
//     never to a lost or wrong cell.
//   - Completed measure cells ship their canonical measure-artifact
//     payload in the done report; profile cells publish their artifacts
//     through the remote store (internal/artifact) instead, so every
//     other worker's measure cells fetch the one profile chain rather
//     than recomputing it — the paper's shared-stage economy, across
//     machines.
//
// Chaos sites: "fabric.lease/<worker>" fails a poll (the worker backs
// off and retries), and the artifact tier's "artifact.fetch/<stage>"
// exercises the fetch-verify-evict path. Both are deterministic under
// internal/faultinject seeds.
package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// Config carries the coordinator's knobs. The zero value is usable: no
// store, no journal, 15s leases.
type Config struct {
	// Store, when set, is served as the cluster's remote artifact store at
	// /v1/artifacts/ (see artifact.NewServer). Point it at the same
	// directory as the local runner's cache so locally-computed and
	// worker-pushed artifacts pool together.
	Store *artifact.Cache
	// Registry collects fabric metrics (cells_done, cells_stolen,
	// workers, per-worker counters). Nil disables instrumentation.
	Registry *metrics.Registry
	// Lease is how long a granted cell stays owned without a heartbeat
	// before it is stolen back (default 15s).
	Lease time.Duration
	// Poll is the idle backoff hint returned to workers when no cell is
	// runnable (default 250ms).
	Poll time.Duration
	// MaxAttempts bounds how many times a cell that *reports* failure is
	// regranted before it is marked failed (default 3). Lease expiries are
	// not failures and do not count.
	MaxAttempts int
	// KeepGoing mirrors core.WithKeepGoing: failed cells are collected
	// into a *core.SweepErrors next to the partial Sweep instead of
	// aborting the campaign.
	KeepGoing bool
	// Resume replays this campaign's journal fragment under JournalDir:
	// cells recorded done are served from the fragment, not recomputed.
	Resume bool
	// JournalDir, when set, holds the coordinator's per-campaign journal
	// fragments (conventionally the cache directory).
	JournalDir string
	// AuditFrac is the fraction of completed measure cells re-dispatched
	// to a different worker for fingerprint verification (0 = no auditing,
	// 1 = every cell). The sample is a deterministic function of the
	// campaign fingerprint and cell label (see Audited); divergent workers
	// are quarantined by majority vote.
	AuditFrac float64
	// Injector arms the "fabric.lease/<worker>" chaos site.
	Injector *faultinject.Injector
	// Log receives one line per lifecycle event (nil = silent).
	Log func(format string, args ...interface{})
}

// Coordinator owns the cell scheduler and the fabric's HTTP surface.
// Create with NewCoordinator; campaigns enter through RunCampaign (the
// serve.Config.Distribute hook) and workers through Handler.
type Coordinator struct {
	cfg Config
	reg *metrics.Registry
	mux *http.ServeMux

	mu       sync.Mutex
	workers  map[string]*workerState
	runs     map[string]*run
	runOrder []string
	seq      uint64
	drain    func() bool

	// encodeErrOnce gates the single log line for response-encode failures;
	// the rate lives in the fabric.http_encode_errors counter (see http.go).
	encodeErrOnce sync.Once
}

type workerState struct {
	id          string
	lastSeen    time.Time
	cellsDone   int64
	quarantined bool // audit divergence: granted nothing, trusted with nothing
}

// auditPhase is where a completed, held result's audit stands.
type auditPhase uint8

const (
	auditNone   auditPhase = iota
	auditWait              // completed but held: awaiting an audit re-execution grant
	auditLeased            // audit re-execution in flight on another worker
)

// lease is the coordinator's own state for one cell of a run's graph,
// guarded by Coordinator.mu: the lease, its heartbeat deadline, failure
// reports, and the audit of a completed result. The cell's lifecycle —
// gating, cascade, resume, assembly — lives in the core.CellGraph; a
// leased or audit-held cell is core.CellRunning there.
type lease struct {
	worker   string    // lease owner while leased
	deadline time.Time // lease expiry while leased
	seq      uint64    // grant sequence number; heartbeats echo it
	attempts int       // failure reports consumed (steals don't count)

	audit       auditPhase
	doneBy      string        // worker whose bytes were accepted
	audited     bool          // payload survived fingerprint verification
	auditRounds int           // audit grants consumed (bounded by maxAuditGrants)
	reports     []auditReport // fingerprint votes while held for audit
}

// run is one campaign in flight.
type run struct {
	id       string
	camp     core.Campaign
	spec     []byte // campaignWire JSON served to workers
	g        *core.CellGraph
	cells    []lease // indexed like g
	jn       *journal.Writer
	finished bool
	done     chan struct{}
}

// task is the wire identity of cell i under its current lease.
func (r *run) task(i int) Task {
	c := r.g.Cell(i)
	return Task{Campaign: r.id, Kind: c.Kind, Workload: c.Workload, Config: c.Config, Seq: r.cells[i].seq}
}

// NewCoordinator builds a coordinator and its HTTP routes.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.Lease <= 0 {
		cfg.Lease = 15 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     cfg.Registry,
		workers: map[string]*workerState{},
		runs:    map[string]*run{},
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/fabric/workers", c.handleRegister)
	c.mux.HandleFunc("POST /v1/fabric/poll", c.handlePoll)
	c.mux.HandleFunc("POST /v1/fabric/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/fabric/done", c.handleDone)
	c.mux.HandleFunc("GET /v1/fabric/status", c.handleStatus)
	c.mux.HandleFunc("GET /v1/fabric/campaigns/{id}", c.handleCampaign)
	if cfg.Store != nil {
		c.mux.Handle("/v1/artifacts/", artifact.NewServer(cfg.Store))
	}
	return c
}

// Handler returns the coordinator's HTTP handler. It serves everything
// under /v1/fabric/ plus — with a Store — the remote artifact store under
// /v1/artifacts/; mount both prefixes on the daemon's mux.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// SetDrainCheck installs the liveness gate for /v1/fabric/status: while
// fn reports true the endpoint answers 503 + Retry-After instead of a
// status body (cmd/boomd wires the serve.Server's Draining here).
func (c *Coordinator) SetDrainCheck(fn func() bool) {
	c.mu.Lock()
	c.drain = fn
	c.mu.Unlock()
}

// LiveWorkers counts workers seen within the liveness window (three
// lease intervals).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= 3*c.cfg.Lease {
			n++
		}
	}
	return n
}

func (c *Coordinator) logf(format string, args ...interface{}) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

func (c *Coordinator) count(name string) {
	if c.reg != nil {
		c.reg.Counter(name).Inc()
	}
}

// RunCampaign distributes one campaign across the registered workers and
// blocks until every cell is terminal (or ctx is canceled). It has the
// exact signature of serve.Config.Distribute. With no live workers the
// campaign runs on the local Runner instead — a coordinator with an empty
// cluster degrades to a single node, byte-identically. Error semantics
// mirror Runner.Sweep: fail-fast returns (nil, err) on the first
// exhausted cell; KeepGoing returns the partial Sweep together with a
// *core.SweepErrors.
func (c *Coordinator) RunCampaign(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error) {
	if c.LiveWorkers() == 0 && local != nil {
		c.count("fabric.local_fallback")
		c.logf("campaign %s: no live workers, running locally", short(id))
		return local.Sweep(ctx, camp)
	}
	r, err := c.admit(id, camp)
	if err != nil {
		return nil, err
	}
	defer c.retire(id)
	c.logf("campaign %s: %d cell(s) across %d live worker(s)",
		short(id), r.g.Len(), c.LiveWorkers())
	select {
	case <-r.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return c.assemble(r)
}

// admit builds the cell graph for one campaign, replays a matching
// journal fragment under Resume, and registers the run with the
// scheduler.
func (c *Coordinator) admit(id string, camp core.Campaign) (*run, error) {
	if err := camp.Validate(); err != nil {
		return nil, err
	}
	spec, err := json.Marshal(encodeCampaign(camp))
	if err != nil {
		return nil, err
	}
	r := &run{id: id, camp: camp, spec: spec, g: core.NewCellGraph(camp), done: make(chan struct{})}
	r.cells = make([]lease, r.g.Len())

	resumed := 0
	if c.cfg.Resume && c.cfg.JournalDir != "" {
		r.g.Resume(id, FragmentPath(c.cfg.JournalDir, id))
		for i := 0; i < r.g.Len(); i++ {
			// A measure cell without its payload is not done.
			if cl := r.g.Cell(i); cl.Resumed && (cl.Kind == core.CellProfile || len(cl.Payload) > 0) {
				r.g.Done(i)
				resumed++
			}
		}
		if resumed > 0 {
			if c.reg != nil {
				c.reg.Counter("fabric.cells_resumed").Add(int64(resumed))
			}
			c.logf("campaign %s: resumed %d cell(s) from journal fragment", short(id), resumed)
		}
	}
	if c.cfg.JournalDir != "" {
		r.jn = journal.Open(FragmentPath(c.cfg.JournalDir, id), id, resumed > 0,
			c.reg.Counter("fabric.journal_write_errors"), c.cfg.Log)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs[id] != nil {
		r.jn.Close()
		return nil, fmt.Errorf("fabric: campaign %s already running", short(id))
	}
	c.runs[id] = r
	c.runOrder = append(c.runOrder, id)
	if r.g.Finished() {
		c.finishLocked(r)
	}
	return r, nil
}

// retire removes a finished (or abandoned) run from the scheduler. Late
// reports for a retired campaign are acknowledged and dropped — the
// journal fragment already has everything that completed.
func (c *Coordinator) retire(id string) {
	c.mu.Lock()
	r := c.runs[id]
	delete(c.runs, id)
	for i, rid := range c.runOrder {
		if rid == id {
			c.runOrder = append(c.runOrder[:i], c.runOrder[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if r != nil {
		r.jn.Close()
	}
}

// nextTask grants the first runnable cell to worker, stamping a fresh
// lease. Expired leases across every run are reclaimed first, so a
// stalled worker's cells become grantable the moment anyone polls.
// Quarantined workers are granted nothing; cells held for audit are
// granted — as Fresh re-executions — in graph order with pending work.
func (c *Coordinator) nextTask(worker string) *Task {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLeasesLocked(now)
	if ws := c.workers[worker]; ws != nil && ws.quarantined {
		return nil
	}
	for _, rid := range c.runOrder {
		r := c.runs[rid]
		if r.finished {
			continue
		}
		for i := range r.cells {
			if r.cells[i].audit == auditWait {
				if t := c.grantAuditLocked(r, i, worker, now); t != nil {
					return t
				}
				continue
			}
			if !r.g.Ready(i) {
				continue
			}
			c.seq++
			r.g.Claim(i)
			cl := &r.cells[i]
			cl.worker, cl.deadline, cl.seq = worker, now.Add(c.cfg.Lease), c.seq
			c.count("fabric.cells_leased")
			t := r.task(i)
			return &t
		}
	}
	return nil
}

// expireLeasesLocked steals cells back from workers whose lease lapsed.
// An expired audit lease returns to the audit queue, not the pending
// queue — the original result is still held for verification.
func (c *Coordinator) expireLeasesLocked(now time.Time) {
	for _, rid := range c.runOrder {
		r := c.runs[rid]
		if r.finished {
			continue
		}
		for i := range r.cells {
			cl := &r.cells[i]
			if r.g.State(i) != core.CellRunning || cl.audit == auditWait || !now.After(cl.deadline) {
				continue
			}
			label := r.g.Cell(i).Label
			if cl.audit == auditLeased {
				c.logf("campaign %s: stealing audit of %s from silent worker %s", short(r.id), label, cl.worker)
				cl.audit = auditWait
			} else {
				c.logf("campaign %s: stealing %s from silent worker %s", short(r.id), label, cl.worker)
				r.g.Requeue(i)
			}
			cl.worker = ""
			c.count("fabric.cells_stolen")
		}
	}
}

// failCellLocked marks a cell terminally failed; the graph cascades the
// failure to pending dependents (a measure cell can never run without its
// profile). Fail-fast campaigns finish on the first failure.
func (c *Coordinator) failCellLocked(r *run, i int, msg string) {
	cl := &r.cells[i]
	cl.worker = ""
	cascaded := r.g.Fail(i, fmt.Errorf("fabric: cell %s failed after %d attempt(s): %s",
		r.g.Cell(i).Label, cl.attempts, msg))
	if c.reg != nil {
		c.reg.Counter("fabric.cells_failed").Add(int64(1 + len(cascaded)))
	}
	if !c.cfg.KeepGoing || r.g.Finished() {
		c.finishLocked(r)
	}
}

func (c *Coordinator) finishLocked(r *run) {
	if !r.finished {
		r.finished = true
		close(r.done)
	}
}

// assemble merges a finished run's cells into the Sweep a single node
// would have produced. Profiles are intentionally absent (the encoding
// never consumes them — DESIGN §12's wall-clock-free contract); Results
// decode from each measure cell's canonical payload, which IS the bytes
// the measure artifact holds, so the merge cannot introduce drift.
func (c *Coordinator) assemble(r *run) (*core.Sweep, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return r.g.Sweep(core.FlowConfigFor(r.camp.Scale), r.camp.Sampling, c.cfg.KeepGoing)
}

// FragmentPath returns the journal fragment location for one campaign
// under a node's cache/journal directory. Every node — the coordinator as
// cells are reported done, each worker as it finishes cells locally —
// journals completed cells (internal/journal) to its own fragment.
func FragmentPath(dir, campaignID string) string {
	return filepath.Join(dir, "fabric-"+short(campaignID)+".journal")
}

// MergeJournals is the fabric's recovery path: a restarted coordinator (or
// an operator gathering fragments off dead workers' disks) merges any
// number of fragments into the union of completed cells for campaign
// wantID, keyed by cell label. Measure cells map to their canonical
// payload bytes, profile cells to nil (use the comma-ok form to tell
// "done profile" from "absent"). Foreign fragments are ignored whole;
// missing files and torn lines are skipped; on a duplicate label the
// first occurrence — in path order, then file order — wins silently.
func MergeJournals(wantID string, paths ...string) map[string][]byte {
	return journal.Read(wantID, paths...).Cells
}

// short abbreviates a campaign fingerprint for log lines.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// sortedWorkersLocked snapshots worker rows for the status endpoint.
func (c *Coordinator) sortedWorkersLocked(now time.Time) []WorkerStatus {
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID:          w.id,
			Live:        now.Sub(w.lastSeen) <= 3*c.cfg.Lease,
			CellsDone:   w.cellsDone,
			LastSeenMS:  now.Sub(w.lastSeen).Milliseconds(),
			Quarantined: w.quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
