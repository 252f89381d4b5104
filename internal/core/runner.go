package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/asap7"
	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/faultinject"
	"repro/internal/mav"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/sampling"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// Stage names used for spans and StageError identity, in flow order.
const (
	StageProfile    = "profile"
	StageSelect     = "select"
	StageCheckpoint = "checkpoint"
	StageWarmup     = "warmup"
	StageMeasure    = "measure"
	StageEstimate   = "estimate"
)

// Stages lists every stage name in flow order.
func Stages() []string {
	return []string{StageProfile, StageSelect, StageCheckpoint,
		StageWarmup, StageMeasure, StageEstimate}
}

// Runner executes the SimPoint→power flow. Construct with New; the zero
// value is not usable. A Runner is safe for concurrent use: it holds only
// immutable configuration plus an optional metrics registry and artifact
// cache (both internally synchronized).
//
// Sweep runs under supervision: worker panics are recovered into
// *StageError (never crash the process), per-stage watchdogs bound runaway
// stages (WithStageTimeout), transient faults retry with exponential
// backoff (WithRetry), failures can be collected instead of aborting the
// campaign (WithKeepGoing), and — with a cache attached — an append-only
// journal makes killed sweeps resumable (WithResume).
type Runner struct {
	fc           FlowConfig
	scale        workloads.Scale
	sampling     sampling.Spec
	reg          *metrics.Registry
	par          int
	pointPar     int
	sem          chan struct{} // shared -j slot budget (see points.go)
	progress     func(string)
	cache        *artifact.Cache
	remote       *artifact.Remote
	verify       bool
	stageTimeout time.Duration
	retryMax     int
	retryBase    time.Duration
	keepGoing    bool
	resume       bool
	inj          *faultinject.Injector
	taskHook     func(completed int)
	tasksDone    atomic.Int64
}

// Option configures a Runner.
type Option func(*Runner)

// WithScale sets the workload scale used when the Runner builds workloads
// by name (Sweep, Validate). Default: workloads.ScaleTiny.
func WithScale(s workloads.Scale) Option {
	return func(r *Runner) { r.scale = s }
}

// WithLib overrides the ASAP7 library used for power estimation.
func WithLib(lib asap7.Library) Option {
	return func(r *Runner) { r.fc.Lib = lib }
}

// WithSampling sets the Runner's sampling spec, used by direct
// Profile/Run/Validate calls and by Sweep when the campaign itself
// carries no spec. The zero value (the default) reproduces the legacy
// implicit defaults — and every legacy artifact key and campaign
// fingerprint byte-for-byte. A campaign with a non-zero Sampling field
// overrides this for its sweep, the way campaign scale already overrides
// WithScale.
func WithSampling(spec sampling.Spec) Option {
	return func(r *Runner) { r.sampling = spec }
}

// WithMetrics attaches a metrics registry: per-stage spans under the
// "flow" root span, functional/detailed throughput, k-means stats, and
// sweep worker utilization. A nil registry disables instrumentation.
func WithMetrics(reg *metrics.Registry) Option {
	return func(r *Runner) { r.reg = reg }
}

// WithParallelism sets the Runner's total worker budget: the number of
// Sweep workers, and — shared with them through one slot semaphore — the
// ceiling on concurrent intra-cell point workers (see
// WithPointParallelism). Values below 1 mean "one worker". Default:
// runtime.GOMAXPROCS(0). Results are bit-identical for every parallelism
// level — each (workload, config) measurement is an isolated deterministic
// core+CPU pair, and within a cell the per-point reduction is replayed
// serially in checkpoint order (DESIGN §17).
func WithParallelism(n int) Option {
	return func(r *Runner) { r.par = n }
}

// WithPointParallelism caps how many simulation points of one (workload,
// config) cell may be measured concurrently. The default (any n < 1)
// shares the WithParallelism budget: a cell fans its points out over
// whatever slots the sweep leaves idle, so a single-workload campaign
// uses all of -j while a saturated 11×3 sweep degrades each cell to
// serial measurement — the combined goroutine count never exceeds -j.
// n = 1 forces strictly serial point measurement. Results are
// bit-identical at every setting.
func WithPointParallelism(n int) Option {
	return func(r *Runner) { r.pointPar = n }
}

// WithProgress installs a callback receiving human-readable step strings.
func WithProgress(fn func(string)) Option {
	return func(r *Runner) { r.progress = fn }
}

// WithCache attaches a content-addressed artifact cache rooted at dir.
// Every stage then does lookup → compute-on-miss → atomic write, keyed by
// a hash of the stage's full input closure (see internal/core/cache.go).
// Results are bit-identical with and without a cache; an empty dir
// disables caching.
func WithCache(dir string) Option {
	return func(r *Runner) {
		if dir == "" {
			r.cache = nil
			return
		}
		r.cache = artifact.Open(dir)
	}
}

// WithRemoteStore attaches a remote artifact store as a second cache
// tier (see artifact.Cache.SetRemote): local misses fall through to a
// checksum-verified remote fetch, and every Put is pushed through to the
// store so stages computed on this node are visible to every node sharing
// it. This is how the distributed sweep fabric (internal/fabric) gets the
// paper's one-profile-per-workload economy across machines. Requires
// WithCache (the local tier is the read-through cache); without a cache
// the remote is ignored.
func WithRemoteStore(remote *artifact.Remote) Option {
	return func(r *Runner) { r.remote = remote }
}

// WithCacheVerify makes every cache hit recompute the stage and
// byte-compare the canonical payloads, turning silent cache corruption or
// nondeterminism into a hard error. A no-op without WithCache.
func WithCacheVerify(v bool) Option {
	return func(r *Runner) { r.verify = v }
}

// WithStageTimeout bounds each pipeline stage execution with a deadline: a
// workload's profile/select/checkpoint stages individually, and each
// (workload, config) measurement body as one unit. Enforcement is
// cooperative — the deadline is observed at the same interval boundaries
// as context cancellation — and a tripped watchdog surfaces as a transient
// error (errors.Is context.DeadlineExceeded), so WithRetry can re-run the
// stage. Zero (the default) disables the watchdog.
func WithStageTimeout(d time.Duration) Option {
	return func(r *Runner) { r.stageTimeout = d }
}

// WithRetry allows up to n retries (n+1 attempts) per sweep task when the
// failure is transient (see IsTransient): injected chaos, cache I/O, a
// tripped watchdog. Waits between attempts grow exponentially from base
// (base, 2·base, 4·base, …). Deterministic model errors — deadlocks,
// invalid configs, diverged checkpoints — are never retried. Retries apply
// to Sweep tasks; direct Profile/Run calls fail on first error.
func WithRetry(n int, base time.Duration) Option {
	return func(r *Runner) {
		if n < 0 {
			n = 0
		}
		if base <= 0 {
			base = 10 * time.Millisecond
		}
		r.retryMax, r.retryBase = n, base
	}
}

// WithKeepGoing makes Sweep run every task regardless of failures, collect
// every task error into a *SweepErrors, and still return all successfully
// measured Results: a long campaign loses exactly the faulted (workload,
// config) pairs, nothing else. Without it (the default), the first failure
// aborts the sweep and the remaining tasks are drained unrun.
func WithKeepGoing(v bool) Option {
	return func(r *Runner) { r.keepGoing = v }
}

// WithResume replays the sweep journal left under the cache directory by a
// previous (killed or failed) run of the identical campaign: tasks with a
// "done" record are served straight from their cache artifacts and only
// unfinished or failed tasks recompute. Requires WithCache; a journal from
// a different campaign (different workloads, configs, flow parameters or
// scale) is ignored.
func WithResume(v bool) Option {
	return func(r *Runner) { r.resume = v }
}

// WithFaultInjector attaches a deterministic fault-injection plan (see
// internal/faultinject). The injector is threaded into every fault site
// the Runner controls: core.profile/<wl>, core.measure/<wl>/<cfg>,
// core.estimate/<wl>/<cfg> at each per-point power estimate,
// boom.tick/<wl>/<cfg> inside the detailed model, and the artifact cache's
// read/write sites. Nil (the default) disables every site.
func WithFaultInjector(inj *faultinject.Injector) Option {
	return func(r *Runner) { r.inj = inj }
}

// WithTaskHook installs fn, called after every successfully completed
// sweep task with the Runner's running completion count. This is an
// operational hook for crash drills and progress-driven tooling (e.g.
// "kill the process after N tasks" in resume tests); fn runs on worker
// goroutines and must be safe for concurrent use.
func WithTaskHook(fn func(completed int)) Option {
	return func(r *Runner) { r.taskHook = fn }
}

// New returns a Runner for the given flow configuration.
func New(fc FlowConfig, opts ...Option) *Runner {
	r := &Runner{
		fc:    fc,
		scale: workloads.ScaleTiny,
		par:   runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(r)
	}
	if r.par < 1 {
		r.par = 1
	}
	r.sem = make(chan struct{}, r.par)
	if r.cache != nil {
		r.cache.SetMetrics(r.reg)
		r.cache.SetFaultInjector(r.inj)
		r.cache.SetRemote(r.remote)
		r.cache.SetLog(r.note)
	}
	r.inj.SetMetrics(r.reg)
	return r
}

// Metrics returns the attached registry (nil when none).
func (r *Runner) Metrics() *metrics.Registry { return r.reg }

// Cache returns the attached artifact cache (nil when none).
func (r *Runner) Cache() *artifact.Cache { return r.cache }

// flowLap opens a lap on the root "flow" span; the returned func closes it.
func (r *Runner) flowLap() func() {
	if r.reg == nil {
		return func() {}
	}
	sp := r.reg.Span("flow")
	sp.Start()
	return sp.End
}

// stage opens a lap on one stage span under the "flow" root.
func (r *Runner) stage(name string) func() {
	if r.reg == nil {
		return func() {}
	}
	sp := r.reg.Span("flow").Child(name)
	sp.Start()
	return sp.End
}

func (r *Runner) note(format string, args ...interface{}) {
	if r.progress != nil {
		r.progress(fmt.Sprintf(format, args...))
	}
}

// stageCtx derives the per-stage watchdog deadline (WithStageTimeout).
func (r *Runner) stageCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if r.stageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, r.stageTimeout)
}

// Profile runs steps 1–3 of the flow (profile → select → checkpoint) for
// one already-built workload, under the Runner's sampling spec
// (WithSampling; the zero spec is the legacy flow). Cancellation is
// cooperative: the context is checked at interval boundaries of the
// functional execution, where any WithStageTimeout deadline is observed
// too. With a cache attached, each step is served from its artifact when
// present.
func (r *Runner) Profile(ctx context.Context, w *workloads.Workload) (*Profile, error) {
	return r.profileWith(ctx, w, r.sampling, false)
}

// effectiveSpec resolves which sampling spec governs a campaign: the
// campaign's own when set, else the Runner's (WithSampling). Everything
// spec-dependent — sweep profiling, the campaign fingerprint, the
// journal identity — goes through this one resolution so results and
// identities can never disagree.
func (r *Runner) effectiveSpec(c Campaign) sampling.Spec {
	if !c.Sampling.IsZero() {
		return c.Sampling
	}
	return r.sampling
}

// simpointConfig resolves the clustering config under a spec: the flow's
// scale-derived defaults with the spec's Dims/MaxK overrides applied.
func (r *Runner) simpointConfig(spec sampling.Spec) simpoint.Config {
	cfg := r.fc.SimPoint
	if spec.Dims > 0 {
		cfg.Dims = spec.Dims
	}
	if spec.MaxK > 0 {
		cfg.MaxK = spec.MaxK
	}
	return cfg
}

// profileWith is Profile under an explicit sampling spec: the spec
// resolves the interval length (falling back to the workload's), the
// clustering feature set and config, and the warm-up budget checkpoints
// are captured under. With lazy, a cached checkpoint payload is decoded
// only when a measurement needs it (see Runner.loadCheckpoints).
func (r *Runner) profileWith(ctx context.Context, w *workloads.Workload, spec sampling.Spec, lazy bool) (*Profile, error) {
	defer r.flowLap()()

	interval := spec.ResolveInterval(w.IntervalSize)
	warmup := spec.ResolveWarmup(interval, r.fc.WarmupInsts)
	spCfg := r.simpointConfig(spec)

	var keys profileKeys
	if r.cache != nil {
		keys = r.profileKeys(w, spec)
	}

	// Stage 1: functional execution + BBV (and, under a bbv+mav spec, MAV)
	// profiling, one interval at a time.
	var (
		vectors    []bbv.Vector
		mavs       []mav.Vector
		totalInsts uint64
		numBlocks  int
	)
	endStage := r.stage(StageProfile)
	c1, err := r.stageCached(keys.bbv,
		func(payload []byte) error {
			v, m, ti, nb, derr := decodeBBVPayloadSpec(payload, spec)
			if derr != nil {
				return derr
			}
			vectors, mavs, totalInsts, numBlocks = v, m, ti, nb
			return nil
		},
		func() error {
			sctx, cancel := r.stageCtx(ctx)
			defer cancel()
			if ierr := r.inj.Hit("core.profile", w.Name); ierr != nil {
				return ierr
			}
			cpu, cerr := w.NewCPU()
			if cerr != nil {
				return cerr
			}
			cpu.SetMetrics(r.reg)
			profiler := bbv.NewProfiler(interval)
			observe := profiler.Observe
			var mavProf *mav.Profiler
			if spec.UseMAV() {
				// Both profilers count every retired instruction, so their
				// interval boundaries coincide and vector i of each stream
				// describes the same instructions.
				mavProf = mav.NewProfiler(interval)
				observe = func(rt *sim.Retired) {
					profiler.Observe(rt)
					mavProf.Observe(rt)
				}
			}
			var n int64
			for !cpu.Halted {
				if cerr := sctx.Err(); cerr != nil {
					return cerr
				}
				ran, rerr := cpu.RunTrace(interval, observe)
				n += ran
				if rerr != nil {
					return rerr
				}
				if ran == 0 && !cpu.Halted {
					return fmt.Errorf("no forward progress (did not halt)")
				}
			}
			profiler.Finish()
			vectors = profiler.Vectors()
			totalInsts = uint64(n)
			numBlocks = profiler.NumBlocks()
			if mavProf != nil {
				mavProf.Finish()
				mavs = mavProf.Vectors()
				if len(mavs) != len(vectors) {
					return fmt.Errorf("profiler drift: %d MAV intervals for %d BBV intervals", len(mavs), len(vectors))
				}
			}
			return nil
		},
		func() ([]byte, error) {
			return encodeBBVPayloadSpec(vectors, mavs, totalInsts, numBlocks, spec)
		})
	endStage()
	if err != nil {
		return nil, wrapStage(StageProfile, w.Name, "", err)
	}

	// Stage 2: SimPoint selection.
	var sel *simpoint.Result
	endStage = r.stage(StageSelect)
	c2, err := r.stageCached(keys.sel,
		func(payload []byte) error {
			s, derr := simpoint.DecodeResult(bytes.NewReader(payload))
			if derr != nil {
				return derr
			}
			sel = s
			return nil
		},
		func() error {
			var s *simpoint.Result
			var serr error
			if spec.UseMAV() {
				s, serr = simpoint.ChooseCombined(vectors, mavs, spCfg)
			} else {
				s, serr = simpoint.Choose(vectors, spCfg)
			}
			if serr != nil {
				return serr
			}
			sel = s
			return nil
		},
		func() ([]byte, error) {
			var buf bytes.Buffer
			if eerr := simpoint.EncodeResult(&buf, sel); eerr != nil {
				return nil, eerr
			}
			return buf.Bytes(), nil
		})
	if err == nil && r.reg != nil {
		r.reg.Counter("simpoint.kmeans.runs").Add(int64(sel.Stats.Runs))
		r.reg.Counter("simpoint.kmeans.iterations").Add(int64(sel.Stats.Iterations))
		r.reg.Gauge("simpoint.k").Set(float64(sel.K))
		r.reg.Gauge("simpoint.coverage").Set(sel.Coverage)
	}
	endStage()
	if err != nil {
		return nil, wrapStage(StageSelect, w.Name, "", err)
	}

	// Stage 3: checkpoint creation. Checkpoints are taken WarmupInsts
	// before each simulation point (clamped at program start), in one
	// functional pass over the sorted capture points.
	var (
		cks     []*ckpt.Checkpoint
		warmups []int64
		lz      *lazyCheckpoints
	)
	endStage = r.stage(StageCheckpoint)
	c3, err := r.stageCached(keys.ckpt,
		func(payload []byte) error {
			if lazy {
				lz = &lazyCheckpoints{payload: payload}
				return nil
			}
			k, wu, derr := decodeCkptPayload(payload, len(sel.Selected))
			if derr != nil {
				return derr
			}
			cks, warmups = k, wu
			return nil
		},
		func() error {
			sctx, cancel := r.stageCtx(ctx)
			defer cancel()
			type capturePoint struct {
				at       int64 // instruction count where the checkpoint is taken
				selIdx   int
				interval int64
			}
			caps := make([]capturePoint, len(sel.Selected))
			for i, pt := range sel.Selected {
				st := int64(pt.Interval) * interval
				at := st - warmup
				if at < 0 {
					at = 0
				}
				caps[i] = capturePoint{at: at, selIdx: i, interval: int64(pt.Interval)}
			}
			sort.Slice(caps, func(i, j int) bool { return caps[i].at < caps[j].at })

			cpu2, cerr := w.NewCPU()
			if cerr != nil {
				return cerr
			}
			cpu2.SetMetrics(r.reg)
			cks = make([]*ckpt.Checkpoint, len(caps))
			warmups = make([]int64, len(caps))
			var executed int64
			for _, cp := range caps {
				for executed < cp.at {
					if cerr := sctx.Err(); cerr != nil {
						return cerr
					}
					step := cp.at - executed
					if step > interval {
						step = interval
					}
					if _, rerr := cpu2.Run(step); rerr != nil {
						return rerr
					}
					executed += step
				}
				k := ckpt.Capture(cpu2)
				k.Interval = cp.interval
				k.Weight = sel.Selected[cp.selIdx].Weight
				cks[cp.selIdx] = k
				warmups[cp.selIdx] = cp.interval*interval - cp.at
			}
			return nil
		},
		func() ([]byte, error) {
			return encodeCkptPayload(cks, warmups)
		})
	endStage()
	if err != nil {
		return nil, wrapStage(StageCheckpoint, w.Name, "", err)
	}

	p := &Profile{
		Workload:    w,
		Sampling:    spec,
		Interval:    interval,
		TotalInsts:  totalInsts,
		Vectors:     vectors,
		MAVs:        mavs,
		NumBlocks:   numBlocks,
		Selection:   sel,
		Checkpoints: cks,
		WarmupInsts: warmups,
		WallNS:      c1 + c2 + c3,
		lazy:        lz,
	}
	if r.cache != nil {
		p.CacheKey = keys.ckpt.Hex()
	}
	return p, nil
}

// Run executes steps 4–5 of the flow for one profiled workload on one
// configuration: restore every checkpoint, warm up, measure, and estimate
// power, aggregating by cluster weight. The context is checked between
// simulation points. With a cache attached, the whole measurement is one
// artifact keyed off the profile's chain.
func (r *Runner) Run(ctx context.Context, p *Profile, cfg boom.Config) (*Result, error) {
	defer r.flowLap()()

	var key artifact.Key
	if r.cache != nil && p.CacheKey != "" {
		key = measureKey(p.CacheKey, cfg, r.fc.Lib)
	}
	res := &Result{
		Workload:   p.Workload.Name,
		Suite:      p.Workload.Suite,
		ConfigName: cfg.Name,
		Mode:       "simpoint",
	}
	cost, err := r.stageCached(key,
		func(payload []byte) error { return decodeResultPayload(payload, res) },
		func() error { return r.measure(ctx, p, cfg, res) },
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, p.Workload.Name, cfg.Name, err)
	}
	res.MeasureWallNS = cost
	return res, nil
}

// loadCheckpoints decodes a lazily served profile's checkpoints, once,
// under the checkpoint stage span. The first measurement to need them
// pays the decode inside its own compute time.
func (r *Runner) loadCheckpoints(p *Profile) error {
	lz := p.lazy
	if lz == nil {
		return nil
	}
	defer r.stage(StageCheckpoint)()
	lz.once.Do(func() {
		p.Checkpoints, p.WarmupInsts, lz.err = decodeCkptPayload(lz.payload, p.NumSimPoints())
		lz.payload = nil
	})
	return lz.err
}

// measure is the compute body of Run: warm up, measure and estimate every
// simulation point, filling res (everything but MeasureWallNS). res is
// only written after the full measurement succeeds, so a failed attempt
// never leaks partial state into a retry.
//
// Points are measured concurrently (see points.go): each restores its own
// checkpoint into a fresh functional+timing pair, deposits its raw
// measurement into an index-addressed slot, and the floating-point
// reduction replays serially in checkpoint order — bit-identical to a
// serial loop at every parallelism level.
func (r *Runner) measure(ctx context.Context, p *Profile, cfg boom.Config, res *Result) error {
	serr := func(stage string, err error) error {
		return &StageError{Stage: stage, Workload: p.Workload.Name, Config: cfg.Name, Err: err}
	}
	mctx, cancel := r.stageCtx(ctx)
	defer cancel()
	// pctx carries the sibling-failure abort: the first failing point
	// cancels it with errSiblingPoint so the others stop claiming work
	// without manufacturing errors of their own.
	pctx, abort := context.WithCancelCause(mctx)
	defer abort(nil)
	if err := r.inj.Hit("core.measure", p.Workload.Name, cfg.Name); err != nil {
		return serr(StageMeasure, err)
	}
	if err := r.loadCheckpoints(p); err != nil {
		return serr(StageCheckpoint, err)
	}

	est := power.NewEstimator(cfg, r.fc.Lib)
	est.SetMetrics(r.reg)

	prog, err := p.Workload.Program()
	if err != nil {
		return serr(StageWarmup, err)
	}

	n := len(p.Checkpoints)
	outs := make([]pointOutput, n)
	// One backing array serves every point's slot vector: point workers
	// write disjoint sub-slices, nothing is shared or resized.
	slotBuf := make([]float64, n*cfg.IntIssueSlots)
	inflight := r.reg.Gauge("core.measure.points_inflight")
	pointNS := r.reg.Histogram("core.measure.point_ns")
	pointsDone := r.reg.Counter("core.measure.points")

	r.runPoints(n, func(i int, scratch *power.Report) {
		out := &outs[i]
		defer func() {
			if rec := recover(); rec != nil {
				// Captured here so a helper goroutine's panic cannot kill
				// the process; re-thrown in checkpoint order by
				// firstPointFailure for the sweep supervisor to recover.
				out.panicked = rec
			}
			if out.panicked != nil || out.err != nil {
				abort(errSiblingPoint)
			}
		}()
		if cerr := pctx.Err(); cerr != nil {
			if context.Cause(pctx) == errSiblingPoint {
				out.aborted = true
			} else {
				out.err = serr(StageMeasure, cerr)
			}
			return
		}
		inflight.Add(1)
		t0 := time.Now()
		defer func() {
			inflight.Add(-1)
			pointsDone.Inc()
			pointNS.Observe(time.Since(t0).Nanoseconds())
		}()

		// Warm-up: restore the architectural checkpoint into a fresh
		// functional+timing pair and prime caches and predictors.
		endStage := r.stage(StageWarmup)
		cpu := sim.New()
		cpu.Load(prog) // establish the decode window
		p.Checkpoints[i].Restore(cpu)
		core, nerr := boom.New(cfg)
		if nerr != nil {
			endStage()
			out.err = serr(StageWarmup, nerr)
			return
		}
		core.SetMetrics(r.reg)
		core.SetFaultInjector(r.inj, p.Workload.Name, cfg.Name)
		ts := &traceSource{cpu: cpu}
		if warm := uint64(p.WarmupInsts[i]); warm > 0 {
			if _, rerr := core.Run(ts.next, warm); rerr != nil {
				endStage()
				out.err = serr(StageWarmup, rerr)
				return
			}
			out.detailed += warm
		}
		core.ResetStats()
		endStage()

		endStage = r.stage(StageMeasure)
		ran, rerr := core.Run(ts.next, uint64(p.Interval))
		endStage()
		if rerr != nil {
			out.err = serr(StageMeasure, rerr)
			return
		}
		if ts.err != nil {
			out.err = serr(StageMeasure, ts.err)
			return
		}
		out.detailed += ran
		st := core.Stats()

		endStage = r.stage(StageEstimate)
		// Per-point estimates are consumed immediately, so each worker's
		// scratch Report serves every point it measures — the zero-alloc
		// accumulation path, now per-worker instead of shared. A failed
		// estimate is as fatal as the aggregate estimate below: silently
		// dropping the point would leave Points inconsistent with the
		// accumulated Stats.
		perr := r.inj.Hit("core.estimate", p.Workload.Name, cfg.Name)
		if perr == nil {
			perr = est.EstimateInto(scratch, st)
		}
		if perr != nil {
			endStage()
			out.err = serr(StageEstimate, perr)
			return
		}
		out.point = PointResult{
			Interval: p.Checkpoints[i].Interval,
			Weight:   p.Selection.Selected[i].Weight,
			IPC:      st.IPC(),
			PowerMW:  scratch.TotalMW(),
		}
		dst := slotBuf[i*cfg.IntIssueSlots : (i+1)*cfg.IntIssueSlots : (i+1)*cfg.IntIssueSlots]
		out.slots = est.SlotPowerInto(dst, st)
		out.stats = st
		endStage()
	})
	if ferr := firstPointFailure(outs); ferr != nil {
		return ferr
	}

	// Ordered reduce: replay the accumulation serially in checkpoint order.
	agg, aggSlots, points, detailed := foldPoints(&cfg, p.Selection, outs)

	endStage := r.stage(StageEstimate)
	rep, err := est.Estimate(agg)
	endStage()
	if err != nil {
		return serr(StageEstimate, err)
	}
	// Normalize the weighted slot powers by coverage so partial coverage
	// does not deflate them. A degenerate selection can carry a zero (or
	// non-finite) coverage; dividing by it would poison every slot power
	// with NaN/Inf, so such a selection skips normalization.
	if cov := p.Selection.Coverage; cov > 0 && !math.IsInf(cov, 1) {
		for s := range aggSlots {
			aggSlots[s] /= cov
		}
	}
	res.TotalInsts = p.TotalInsts
	res.IntervalSize = p.Interval
	res.NumPoints = p.NumSimPoints()
	res.Coverage = p.Selection.Coverage
	res.K = p.Selection.K
	res.Stats = agg
	res.Power = rep
	res.Slots = aggSlots
	res.Points = points
	res.DetailedInsts = detailed
	return nil
}

// RunFull executes the entire workload on the detailed model (the
// baseline the SimPoint methodology replaces). Cancellation is checked at
// interval boundaries of the detailed run.
func (r *Runner) RunFull(ctx context.Context, w *workloads.Workload, cfg boom.Config) (*Result, error) {
	defer r.flowLap()()

	var key artifact.Key
	if r.cache != nil {
		key = fullKey(w, cfg, r.fc.Lib)
	}
	res := &Result{
		Workload:   w.Name,
		Suite:      w.Suite,
		ConfigName: cfg.Name,
		Mode:       "full",
	}
	cost, err := r.stageCached(key,
		func(payload []byte) error { return decodeResultPayload(payload, res) },
		func() error { return r.measureFull(ctx, w, cfg, res) },
		func() ([]byte, error) { return encodeResultPayload(res) })
	if err != nil {
		return nil, wrapStage(StageMeasure, w.Name, cfg.Name, err)
	}
	res.MeasureWallNS = cost
	return res, nil
}

// measureFull is the compute body of RunFull.
func (r *Runner) measureFull(ctx context.Context, w *workloads.Workload, cfg boom.Config, res *Result) error {
	serr := func(stage string, err error) error {
		return &StageError{Stage: stage, Workload: w.Name, Config: cfg.Name, Err: err}
	}
	mctx, cancel := r.stageCtx(ctx)
	defer cancel()
	cpu, err := w.NewCPU()
	if err != nil {
		return serr(StageMeasure, err)
	}
	core, err := boom.New(cfg)
	if err != nil {
		return serr(StageMeasure, err)
	}
	core.SetMetrics(r.reg)
	core.SetFaultInjector(r.inj, w.Name, cfg.Name)
	ts := &traceSource{cpu: cpu}

	endStage := r.stage(StageMeasure)
	chunk := uint64(w.IntervalSize)
	if chunk == 0 {
		chunk = 1 << 20
	}
	var ran uint64
	for {
		n, rerr := core.Run(ts.next, chunk)
		ran += n
		if rerr != nil {
			endStage()
			return serr(StageMeasure, rerr)
		}
		if ts.err != nil {
			endStage()
			return serr(StageMeasure, ts.err)
		}
		if n < chunk {
			break
		}
		if cerr := mctx.Err(); cerr != nil {
			endStage()
			return serr(StageMeasure, cerr)
		}
	}
	endStage()

	st := core.Stats()
	est := power.NewEstimator(cfg, r.fc.Lib)
	est.SetMetrics(r.reg)
	endStage = r.stage(StageEstimate)
	rep, err := est.Estimate(st)
	endStage()
	if err != nil {
		return serr(StageEstimate, err)
	}
	res.TotalInsts = st.Insts
	res.IntervalSize = w.IntervalSize
	res.Stats = st
	res.Power = rep
	res.Slots = est.SlotPower(st)
	res.DetailedInsts = ran
	return nil
}

// Validate runs both the SimPoint flow and the full detailed model for
// one workload (built at the Runner's scale) and compares their IPC.
func (r *Runner) Validate(ctx context.Context, name string, cfg boom.Config) (*Accuracy, error) {
	w, err := workloads.Build(name, r.scale)
	if err != nil {
		return nil, err
	}
	p, err := r.Profile(ctx, w)
	if err != nil {
		return nil, err
	}
	sp, err := r.Run(ctx, p, cfg)
	if err != nil {
		return nil, err
	}
	w2, err := workloads.Build(name, r.scale)
	if err != nil {
		return nil, err
	}
	full, err := r.RunFull(ctx, w2, cfg)
	if err != nil {
		return nil, err
	}
	return &Accuracy{
		Workload:    name,
		ConfigName:  cfg.Name,
		SimPointIPC: sp.IPC(),
		FullIPC:     full.IPC(),
	}, nil
}
