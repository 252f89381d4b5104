package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/backoff"
	"repro/internal/boom"
	"repro/internal/journal"
	"repro/internal/sampling"
	"repro/internal/workloads"
)

// Sweep profiles every campaign workload once (at the campaign's scale)
// and evaluates it on every design point with the SimPoint flow: N
// configs share one profile/select/checkpoint per workload, both within
// the sweep (one profile cell per workload gates that workload's measure
// cells) and across sweeps (the profile stages are config-independent, so
// their cache artifacts feed every design point that ever measures the
// workload). The campaign's cell graph (see CellGraph) runs on the
// Runner's parallelism: each worker claims the first ready cell, so a
// workload's measurements start as soon as its own profile is done — no
// barrier waits for the slowest profile. Every cell is deterministic, so
// results are bit-identical to a serial run regardless of worker count,
// metrics attachment, cache state, retries, or which sibling cells failed.
//
// Failure semantics: by default the first cell error aborts the sweep
// (ready cells drain unrun) and Sweep returns (nil, err). Under
// WithKeepGoing, every runnable cell runs, all failures are collected into
// a *SweepErrors, and Sweep returns the partial *Sweep TOGETHER WITH the
// error — callers render what succeeded and report what did not. Missing
// entries in Results mark the failed pairs, including the measure cells of
// a workload whose profile failed.
func (r *Runner) Sweep(ctx context.Context, camp Campaign) (*Sweep, error) {
	g := NewCellGraph(camp)
	jn := r.openJournal(camp, g)
	defer jn.Close()

	stopped := r.runGraph(ctx, g, jn)
	var extra []error
	if cerr := ctx.Err(); cerr != nil && stopped >= 0 {
		// Name the stage the sweep had reached: the first unfinished cell's.
		extra = append(extra, &StageError{Stage: g.Cell(stopped).Stage(), Err: cerr})
	}
	return g.Sweep(r.fc, r.effectiveSpec(camp), r.keepGoing, extra...)
}

// RunCell executes the cell of camp's graph named label (see CellLabel)
// through the supervisor and cell body Sweep's workers use: the same
// retry policy, stage watchdog, panic recovery into a *StageError with
// its stack, and core.sweep.* counters. It is how a node that holds one
// cell at a time — a fabric worker — runs it, so a cell's result cannot
// depend on which executor computed it. A measure cell reads its
// workload's profile chain from the cache, where the gating profile cell
// left it (on this node, or on any node sharing the remote store); a
// missing chain is computed in place. Returns a measure cell's canonical
// result bytes (EncodeMeasuredResult) and nil for a profile cell, whose
// product is its cached artifact chain.
func (r *Runner) RunCell(ctx context.Context, camp Campaign, label string) ([]byte, error) {
	g := NewCellGraph(camp)
	i := g.Lookup(label)
	if i < 0 {
		return nil, fmt.Errorf("core: campaign has no cell %q", label)
	}
	c := g.Cell(i)
	if err := r.superviseCell(ctx, nil, g, c); err != nil || c.Kind == CellProfile {
		return nil, err
	}
	return EncodeMeasuredResult(c.result)
}

// execCell is the body of one cell. A profile cell runs the profile →
// select → checkpoint chain and keeps the Profile on the cell; a measure
// cell measures its design point on the gating cell's in-memory Profile
// when the gate ran in this sweep, and otherwise on the chain served from
// the cache. Profiles decode their checkpoints lazily, so a warm chain
// costs no decode until a measurement needs it. A running cell is owned
// by its executor; its gate finished (and was published under the
// engine lock) before the cell could be claimed.
func (r *Runner) execCell(ctx context.Context, g *CellGraph, c *Cell) error {
	if c.Kind == CellProfile {
		r.note("profiling %-14s (%s scale)", c.Workload, g.camp.Scale)
		p, err := r.cellProfile(ctx, g.camp, c.Workload)
		if err != nil {
			return err
		}
		c.profile = p
		r.note("  %-14s %d insts, %d intervals, k=%d, %d simpoints, %.0f%% coverage",
			c.Workload, p.TotalInsts, len(p.Vectors), p.Selection.K, p.NumSimPoints(),
			100*p.Selection.Coverage)
		return nil
	}
	p := g.Cell(c.gate).profile
	if p == nil {
		var err error
		if p, err = r.cellProfile(ctx, g.camp, c.Workload); err != nil {
			return err
		}
	}
	r.note("measuring %-14s on %s", c.Workload, c.Config)
	res, err := r.Run(ctx, p, g.camp.Configs[c.cfg])
	c.result = res
	return err
}

// cellProfile builds workload wl at the campaign's scale and profiles it
// under the campaign's sampling spec, with lazily decoded checkpoints.
func (r *Runner) cellProfile(ctx context.Context, camp Campaign, wl string) (*Profile, error) {
	w, err := workloads.Build(wl, camp.Scale)
	if err != nil {
		return nil, wrapStage(StageProfile, wl, "", err)
	}
	return r.profileWith(ctx, w, r.effectiveSpec(camp), true)
}

// runGraph executes g on the Runner's worker pool. Each worker claims the
// first ready cell, holds one slot of the shared -j budget for the cell's
// whole attempt chain (intra-cell point helpers try-acquire the rest, so
// sweep workers plus point workers never exceed -j goroutines), and
// publishes the outcome to the graph. In fail-fast mode the first failure
// stops further claims; so does a canceled context. Ready cells left
// unclaimed count into core.sweep.tasks_drained and stay out of the tasks
// counter, the queue-wait histogram and worker busy time. Queue wait is
// measured from the moment a cell became ready. Returns the index of the
// first cell (in graph order) that did not finish, or -1.
func (r *Runner) runGraph(ctx context.Context, g *CellGraph, jn *journal.Writer) int {
	workers := min(r.par, g.Len())
	start := time.Now()
	doneAt := make([]time.Time, g.Len())
	qwait := r.reg.Histogram("core.sweep.queue_wait_ns")
	tasks := r.reg.Counter("core.sweep.tasks")
	failed := r.reg.Counter("core.sweep.tasks_failed")

	var mu sync.Mutex
	wake := sync.NewCond(&mu)
	running, aborted := 0, false
	busyNS := make([]int64, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			mu.Lock()
			defer mu.Unlock()
			for !aborted && ctx.Err() == nil {
				i := g.Next()
				if i < 0 {
					if running == 0 {
						break // nothing ready and nothing in flight to unlock more
					}
					wake.Wait()
					continue
				}
				g.Claim(i)
				running++
				mu.Unlock()

				c := g.Cell(i)
				readyAt := start
				if c.gate >= 0 {
					readyAt = doneAt[c.gate]
				}
				t0 := time.Now()
				qwait.Observe(t0.Sub(readyAt).Nanoseconds())
				r.sem <- struct{}{}
				err := r.superviseCell(ctx, jn, g, c)
				<-r.sem
				tasks.Inc()
				busyNS[wk] += time.Since(t0).Nanoseconds()

				mu.Lock()
				running--
				if err != nil {
					failed.Inc()
					g.Fail(i, err)
					aborted = aborted || !r.keepGoing
				} else {
					g.Done(i)
					doneAt[i] = time.Now()
				}
				wake.Broadcast()
			}
			wake.Broadcast() // let waiting workers re-check the stop condition
		}(wk)
	}
	wg.Wait()

	stopped := -1
	for i := g.Len() - 1; i >= 0; i-- {
		if g.Ready(i) {
			r.reg.Counter("core.sweep.tasks_drained").Inc()
		}
		if g.State(i) != CellDone {
			stopped = i
		}
	}
	if r.reg != nil {
		wall := time.Since(start).Nanoseconds()
		for wk := 0; wk < workers; wk++ {
			r.reg.Counter(fmt.Sprintf("core.sweep.worker.%02d.busy_ns", wk)).Add(busyNS[wk])
			r.reg.Gauge(fmt.Sprintf("core.sweep.worker.%02d.util", wk)).
				Set(utilization(busyNS[wk], wall))
		}
	}
	return stopped
}

// utilization returns the busy/wall worker-utilization ratio as a finite
// value in [0, 1]. A zero or negative wall clock — a degenerate or instant
// sweep on a coarse clock — must yield 0, never NaN or ±Inf: the ratio
// lands in a gauge that -metrics json marshals, and encoding/json rejects
// non-finite numbers outright, so one bad division would kill the whole
// metrics emission. Busy time can marginally exceed the wall measurement
// (the two clock reads are not atomic), so the ratio is clamped at 1.
func utilization(busyNS, wallNS int64) float64 {
	if wallNS <= 0 || busyNS <= 0 {
		return 0
	}
	if u := float64(busyNS) / float64(wallNS); u < 1 {
		return u
	}
	return 1
}

// superviseCell runs one cell of g under supervision: resume accounting
// and journaling (jn may be nil) around guarded attempts under the retry
// policy. Transient failures (see IsTransient) retry through
// internal/backoff — up to WithRetry's n retries, waiting base, 2·base,
// 4·base, … — while anything else is marked backoff.Permanent and fails
// on the spot.
func (r *Runner) superviseCell(ctx context.Context, jn *journal.Writer, g *CellGraph, c *Cell) error {
	if c.Resumed {
		r.reg.Counter("core.sweep.tasks_resumed").Inc()
	}
	policy := backoff.Policy{
		Attempts: r.retryMax + 1,
		Base:     r.retryBase,
		Max:      24 * time.Hour, // WithRetry's waits double without a practical cap
		Jitter:   -1,
	}
	attempt := 0
	var last error
	err := backoff.Retry(ctx, policy, func(actx context.Context) error {
		attempt++
		last = r.attempt(actx, g, c)
		if last == nil {
			return nil
		}
		if ctx.Err() != nil || !IsTransient(last) {
			return backoff.Permanent(last)
		}
		if attempt <= r.retryMax {
			r.reg.Counter("core.sweep.retries").Inc()
		}
		return last
	})
	if last != nil {
		err = last // a cancellation during the wait still reports the attempt's error
	}
	var se *StageError
	if err != nil && attempt > 1 && errors.As(err, &se) {
		se.Attempt = attempt
	}
	if !c.Resumed {
		if err != nil {
			jn.Fail(c.Label, err.Error())
		} else {
			jn.Done(c.Label, nil)
		}
	}
	if err == nil && r.taskHook != nil {
		r.taskHook(int(r.tasksDone.Add(1)))
	}
	return err
}

// attempt runs one guarded try of a cell: a panic anywhere below — the
// detailed model, an artifact codec, a workload generator — is recovered
// into a *StageError carrying the captured stack, and a tripped per-stage
// watchdog (deadline exceeded while the sweep's own context is still live)
// is classified transient so the retry policy applies.
func (r *Runner) attempt(parent context.Context, g *CellGraph, c *Cell) (err error) {
	defer func() {
		if p := recover(); p != nil {
			r.reg.Counter("core.sweep.panics").Inc()
			err = &StageError{
				Stage:    c.Stage(),
				Workload: c.Workload,
				Config:   c.Config,
				Panicked: true,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("panic: %v", p),
			}
		}
	}()
	err = r.execCell(parent, g, c)
	if err != nil && parent.Err() == nil && errors.Is(err, context.DeadlineExceeded) {
		r.reg.Counter("core.sweep.timeouts").Inc()
		err = Transient(err)
	}
	return err
}

// journalName is the sweep journal's file name under the cache directory.
const journalName = "sweep.journal"

// JournalPath returns the sweep journal location for a cache directory
// (diagnostics and tests).
func JournalPath(cacheDir string) string {
	return filepath.Join(cacheDir, journalName)
}

// openJournal prepares the crash-resume journal (internal/journal) for one
// Sweep. The cache holds the results, the journal the campaign's progress.
// Without a cache there is no journal. With WithResume, cells a matching
// prior journal lists as finished are marked Resumed — they replay
// straight through their cache artifacts — and the file is extended in
// place; otherwise it is truncated and a fresh header written.
func (r *Runner) openJournal(camp Campaign, g *CellGraph) *journal.Writer {
	if r.cache == nil {
		return nil
	}
	id := r.sweepID(camp)
	path := JournalPath(r.cache.Dir())
	resumed := 0
	if r.resume {
		var failed int
		resumed, failed = g.Resume(id, path)
		if resumed > 0 || failed > 0 {
			r.note("resume: journal lists %d finished task(s), %d failed — rerunning the rest", resumed, failed)
		}
	}
	return journal.Open(path, id, resumed > 0, r.reg.Counter("core.sweep.journal_write_errors"), r.note)
}

// sweepID fingerprints a campaign: the exact workload list, configuration
// list, flow parameters and scale. Reuses the artifact cache's canonical
// encoding, so any drift in any input — including any single field of any
// design point, which is how parametric axes (internal/dse) become part
// of the identity — yields a different ID and a stale journal is ignored
// rather than replayed.
//
// Compatibility: the encoded shapes below (anonymous structs, these
// field names and types, the schema versions) are pinned by the
// fingerprint compatibility suite. The zero sampling spec MUST keep
// producing the schema-1 shape — a pre-Campaign-redesign journal or
// cache entry for the named-trio campaign must keep resolving to the
// same ID. A non-zero spec versions into a schema-2 shape that appends
// the spec, so sampling parameters are part of campaign identity the
// same way design-point fields are. Do not rename fields, reorder them,
// or name the structs (the canonical encoding hashes the type name, and
// an anonymous struct encodes as "").
func (r *Runner) sweepID(c Campaign) string {
	spec := r.effectiveSpec(c)
	if spec.IsZero() {
		return artifact.NewKey("sweep", 1, struct {
			Names   []string
			Configs []boom.Config
			Flow    FlowConfig
			Scale   int
		}{c.Workloads, c.Configs, r.fc, int(c.Scale)}).Hex()
	}
	return artifact.NewKey("sweep", 2, struct {
		Names    []string
		Configs  []boom.Config
		Flow     FlowConfig
		Scale    int
		Sampling sampling.Spec
	}{c.Workloads, c.Configs, r.fc, int(c.Scale), spec}).Hex()
}

// CampaignID returns the campaign fingerprint under this Runner's flow
// parameters — the exact identity the sweep journal is keyed by. The
// serving layer (internal/serve) reuses it as the job and dedupe ID:
// duplicate submissions of one campaign collapse onto one job, and the
// artifact cache dedupes across requests.
func (r *Runner) CampaignID(camp Campaign) string {
	return r.sweepID(camp)
}
