// Package serve puts the sweep engine behind an HTTP job service. It is
// the thin layer cmd/boomd is built from: a bounded job queue with
// admission control in front of core.Runner, with campaign fingerprints
// (core.Runner.CampaignID — the same identity the crash-resume journal
// and artifact cache key on) doubling as job IDs, so duplicate in-flight
// submissions of one campaign collapse onto a single sweep.
//
// Endpoints:
//
//	POST /v1/sweeps             submit a campaign; 202 queued, 200 collapsed,
//	                            400 invalid, 429 queue full (+Retry-After),
//	                            503 draining
//
// The POST body (see SweepRequest) names workloads and a scale, plus
// either of two config spellings. The original named form lists
// registered design points:
//
//	{"workloads":["sha","qsort"], "configs":["medium","mega"], "scale":"tiny"}
//
// and keeps producing byte-identical campaign fingerprints to the
// pre-parametric service, so existing journals and caches stay valid.
// The parametric form gives a base point plus per-parameter sweep axes
// (expanded by internal/dse into the validated cross product) and
// optional fixed overrides:
//
//	{"workloads":["sha"], "base":"medium",
//	 "axes":{"rob":[64,96], "predictor":["tage","gshare"]},
//	 "config_overrides":{"l2-kib":1024}, "scale":"tiny"}
//
// Axis and override values may be JSON numbers or strings; "configs" is
// mutually exclusive with "base"/"axes"/"config_overrides".
//
//	GET  /v1/sweeps/{id}        job status
//	GET  /v1/sweeps/{id}/result canonical result JSON; ?wait=1 blocks until
//	                            the job reaches a terminal state
//	GET  /metrics               Prometheus text exposition of the shared
//	                            registry (engine + serving counters)
//	GET  /healthz               liveness (always 200 while the process runs)
//	GET  /readyz                readiness (503 once draining)
//
// The server owns one metrics.Registry shared by every sweep it runs and
// by its own serving counters, so /metrics shows engine internals
// (scheduler utilization, cache hits, retry taxonomy) next to serving
// state (queue depth, collapsed/rejected submissions).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// Config carries the daemon's flags into the server. The zero value is a
// usable in-memory server: no cache, no retries, queue depth 8, one sweep
// at a time.
type Config struct {
	// CacheDir enables the content-addressed artifact cache and the
	// crash-resume journal for every sweep ("" = neither).
	CacheDir string
	// CacheVerify recomputes every cache hit and fails on divergence.
	CacheVerify bool
	// Resume replays a matching sweep journal under CacheDir on the next
	// submission of that campaign and reruns only unfinished tasks.
	Resume bool
	// Retries bounds per-task retry on transient faults (backoff base:
	// core.WithRetry's default).
	Retries int
	// StageTimeout arms a watchdog per pipeline stage (0 = none).
	StageTimeout time.Duration
	// KeepGoing runs every (workload, config) pair despite failures and
	// serves the partial campaign with a Failed list.
	KeepGoing bool
	// Chaos is a deterministic fault-injection plan SEED:SPEC (see
	// internal/faultinject), validated at construction.
	Chaos string
	// Parallelism is per-sweep worker count (0 = all cores).
	Parallelism int
	// Sampling is the default sampling spec applied to campaigns whose
	// request carries no "sampling" block. The zero value keeps the
	// legacy flow (and its fingerprints) untouched; a request-level block
	// always wins over this default.
	Sampling sampling.Spec

	// QueueDepth bounds the job queue; submissions beyond it get 429
	// (default 8).
	QueueDepth int
	// SweepWorkers is the number of sweeps run concurrently (default 1;
	// keep it at 1 when CacheDir is set — the journal is one file per
	// cache dir, so concurrent sweeps would contend for it).
	SweepWorkers int

	// TaskHook mirrors core.WithTaskHook (crash drills in tests).
	TaskHook func(completed int)
	// Log receives one line per lifecycle event (nil = silent).
	Log func(format string, args ...interface{})
	// Progress forwards per-stage engine progress lines to Log (noisy).
	Progress bool

	// Registry, when set, replaces the server's private metrics registry —
	// cmd/boomd shares one registry between the server and the fabric
	// coordinator so /metrics shows both planes.
	Registry *metrics.Registry
	// RemoteStore is the base URL of a remote artifact store attached as a
	// read-through tier over CacheDir (which it requires).
	RemoteStore string
	// Distribute, when set, replaces the direct Runner.Sweep call for each
	// job: the fabric coordinator's RunCampaign hooks in here, sharding the
	// campaign across registered workers (and falling back to the local
	// runner when none are live). serve deliberately knows nothing about
	// the fabric beyond this signature — the dependency points the other
	// way, fabric_test imports serve to prove byte-identity.
	Distribute func(ctx context.Context, id string, camp core.Campaign, local *core.Runner) (*core.Sweep, error)
}

// Server is the HTTP job service. Create with New, serve via Handler,
// stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	reg     *metrics.Registry
	mux     *http.ServeMux
	baseCtx context.Context
	cancel  context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool

	wg sync.WaitGroup
}

// New validates cfg (chaos spec grammar, cache-dependent flags) and
// starts the sweep workers.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = 1
	}
	if cfg.CacheDir == "" {
		if cfg.CacheVerify {
			return nil, fmt.Errorf("serve: CacheVerify requires CacheDir")
		}
		if cfg.Resume {
			return nil, fmt.Errorf("serve: Resume requires CacheDir (the journal lives there)")
		}
	}
	if cfg.Chaos != "" {
		if _, err := faultinject.Parse(cfg.Chaos); err != nil {
			return nil, err
		}
	}
	if err := cfg.Sampling.Validate(); err != nil {
		return nil, fmt.Errorf("serve: default sampling spec: %w", err)
	}
	if cfg.RemoteStore != "" && cfg.CacheDir == "" {
		return nil, fmt.Errorf("serve: RemoteStore requires CacheDir (the local read-through tier)")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		jobs:  map[string]*job{},
		queue: make(chan *job, cfg.QueueDepth),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	for i := 0; i < cfg.SweepWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP handler with request accounting.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter("serve.http.requests").Inc()
		stop := s.reg.Time("serve.http.request_ns")
		s.mux.ServeHTTP(w, r)
		stop()
	})
}

// Metrics exposes the shared registry (tests assert on serving counters).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Status is the job-state JSON for submit/status responses.
type Status struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Workloads []string `json:"workloads"`
	Configs   []string `json:"configs"`
	Scale     string   `json:"scale"`
	// Sampling is the campaign's effective sampling spec, rendered
	// compactly (absent for the legacy zero spec).
	Sampling string `json:"sampling,omitempty"`
	// Collapsed counts duplicate submissions absorbed by this job.
	Collapsed int    `json:"collapsed,omitempty"`
	Error     string `json:"error,omitempty"`
}

// handleSubmit admits a campaign: resolve → fingerprint → single-flight →
// bounded enqueue. The fingerprint is computed by the same Runner that
// will execute the sweep, so "same campaign" here means exactly what the
// journal and cache mean by it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	camp, err := resolveRequest(req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if camp.Sampling.IsZero() {
		// Daemon-level default; the request's own block (even an explicit
		// empty one, which resolves to the zero spec) was already applied.
		camp.Sampling = s.cfg.Sampling
	}
	runner, err := s.newRunner(camp)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	id := runner.CampaignID(camp)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected_draining").Inc()
		w.Header().Set("Retry-After", retryAfterSecs)
		s.httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if j := s.jobs[id]; j != nil && j.state != jobFailed {
		// Single-flight: this campaign is already queued, running or done.
		j.collapsed++
		st := s.statusLocked(j)
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_collapsed").Inc()
		s.writeJSON(w, http.StatusOK, st)
		return
	}
	j := &job{
		id:     id,
		camp:   camp,
		runner: runner,
		state:  jobQueued,
		done:   make(chan struct{}),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.reg.Counter("serve.jobs_rejected_full").Inc()
		w.Header().Set("Retry-After", retryAfterSecs)
		s.httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued)", s.cfg.QueueDepth))
		return
	}
	s.jobs[id] = j // a failed prior job is replaced: resubmission retries it
	st := s.statusLocked(j)
	depth := len(s.queue)
	s.mu.Unlock()
	s.reg.Counter("serve.jobs_accepted").Inc()
	s.reg.Gauge("serve.queue_depth").Set(float64(depth))
	s.writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	var st Status
	if j != nil {
		st = s.statusLocked(j)
	}
	s.mu.Unlock()
	if j == nil {
		s.httpError(w, http.StatusNotFound, "unknown sweep "+id)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleResult serves the canonical result bytes exactly as the worker
// stored them — no re-encoding per request, so every client of one job
// reads identical bytes. ?wait=1 long-polls until the job is terminal.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		s.httpError(w, http.StatusNotFound, "unknown sweep "+id)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
	s.mu.Lock()
	state, errMsg, result := j.state, j.err, j.result
	st := s.statusLocked(j)
	s.mu.Unlock()
	switch state {
	case jobDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case jobFailed:
		s.httpError(w, http.StatusInternalServerError, "sweep failed: "+errMsg)
	default:
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// newRunner builds the engine for one campaign from the daemon's config.
// All sweeps share the server's registry and cache directory.
func (s *Server) newRunner(c core.Campaign) (*core.Runner, error) {
	opts := []core.Option{
		core.WithScale(c.Scale),
		core.WithMetrics(s.reg),
	}
	if s.cfg.Parallelism > 0 {
		opts = append(opts, core.WithParallelism(s.cfg.Parallelism))
	}
	if s.cfg.CacheDir != "" {
		opts = append(opts, core.WithCache(s.cfg.CacheDir), core.WithCacheVerify(s.cfg.CacheVerify))
	}
	if s.cfg.RemoteStore != "" {
		opts = append(opts, core.WithRemoteStore(artifact.NewRemote(s.cfg.RemoteStore, nil)))
	}
	if s.cfg.Resume {
		opts = append(opts, core.WithResume(true))
	}
	if s.cfg.KeepGoing {
		opts = append(opts, core.WithKeepGoing(true))
	}
	if s.cfg.Retries > 0 {
		opts = append(opts, core.WithRetry(s.cfg.Retries, 0))
	}
	if s.cfg.StageTimeout > 0 {
		opts = append(opts, core.WithStageTimeout(s.cfg.StageTimeout))
	}
	if s.cfg.Chaos != "" {
		inj, err := faultinject.Parse(s.cfg.Chaos)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithFaultInjector(inj))
	}
	if s.cfg.TaskHook != nil {
		opts = append(opts, core.WithTaskHook(s.cfg.TaskHook))
	}
	if s.cfg.Progress && s.cfg.Log != nil {
		log := s.cfg.Log
		opts = append(opts, core.WithProgress(func(m string) { log("%s", m) }))
	}
	return core.New(core.FlowConfigFor(c.Scale), opts...), nil
}

func (s *Server) statusLocked(j *job) Status {
	return Status{
		ID:        j.id,
		State:     string(j.state),
		Workloads: append([]string(nil), j.camp.Workloads...),
		Configs:   j.camp.ConfigNames(),
		Scale:     j.camp.Scale.String(),
		Sampling:  j.camp.Sampling.String(),
		Collapsed: j.collapsed,
		Error:     j.err,
	}
}

type jsonError struct {
	Error string `json:"error"`
}

func (s *Server) httpError(w http.ResponseWriter, code int, msg string) {
	s.writeJSON(w, code, jsonError{Error: msg})
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v interface{}) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// retryAfterSecs is the Retry-After hint on 429 and draining 503 answers.
const retryAfterSecs = "2"
