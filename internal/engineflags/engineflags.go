// Package engineflags declares the sweep-engine command-line surface shared
// by every binary that drives the flow (cmd/boomflow, cmd/tables,
// cmd/boomd): caching, crash-resume, supervision, fault injection,
// parallelism, and metrics emission. A new engine option is declared here
// once and every binary picks it up in lockstep instead of each cmd
// re-wiring (and drifting on) its own copy.
//
// Usage:
//
//	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
//	ef := engineflags.Register(fs)
//	ef.RegisterMetrics(fs) // only tools that render a metrics registry
//	fs.Parse(args)
//	opts, err := ef.Options() // validated []core.Option
//
// Validation is strict: values that would silently misbehave (a
// non-positive -j, -cache-verify without a cache directory, a malformed
// -chaos plan) are rejected with a clear error instead of being clamped or
// ignored.
package engineflags

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/sampling"
)

// Flags holds the parsed engine flag values. Fields are exported so
// daemons that thread them into their own config (cmd/boomd → serve.Config)
// can read them directly after Validate.
type Flags struct {
	CacheDir     string
	CacheVerify  bool
	Resume       bool
	Retries      int
	KeepGoing    bool
	StageTimeout time.Duration
	Chaos        string
	Jobs         int
	RemoteStore  string
	// RemoteConnect bounds dialing the remote store / coordinator;
	// RemoteTimeout bounds the wait for response headers per RPC. The two
	// are split deliberately: a single overall client timeout would also
	// cap long polls and large artifact transfers.
	RemoteConnect time.Duration
	RemoteTimeout time.Duration

	// Sampling-spec flags (-interval, -features, -sp-dims, -sp-maxk,
	// -warmup). All zero/empty = the legacy flow; Validate folds them into
	// the spec returned by Sampling.
	Interval int64
	Features string
	SPDims   int
	SPMaxK   int
	Warmup   string

	MetricsMode string // "", "text", "json" (set only if RegisterMetrics)
	MetricsOut  string

	fs         *flag.FlagSet
	hasMetrics bool
	injector   *faultinject.Injector
	sspec      sampling.Spec
}

// RetryBackoff is the base backoff between transient-fault retries used by
// every binary (kept identical so sweep timing is comparable across tools).
const RetryBackoff = 10 * time.Millisecond

// Register declares the shared engine flags on fs and returns the value
// holder. Call Validate (or Options, which validates) after fs.Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.CacheDir, "cache", "", "artifact cache directory (empty = no caching)")
	fs.BoolVar(&f.CacheVerify, "cache-verify", false, "recompute every cache hit and fail on divergence")
	fs.BoolVar(&f.Resume, "resume", false, "replay the sweep journal under -cache and rerun only unfinished tasks")
	fs.IntVar(&f.Retries, "retries", 0, "retries per sweep task on transient faults")
	fs.BoolVar(&f.KeepGoing, "keep-going", false, "run every (workload, config) pair despite failures instead of aborting")
	fs.DurationVar(&f.StageTimeout, "stage-timeout", 0, "watchdog deadline per pipeline stage (0 = none)")
	fs.StringVar(&f.Chaos, "chaos", "", "deterministic fault-injection plan SEED:SPEC, e.g. 7:core.measure/sha/*=error (see internal/faultinject)")
	fs.IntVar(&f.Jobs, "j", 0, "sweep parallelism (0 = all cores); results are bit-identical at any level")
	fs.StringVar(&f.RemoteStore, "remote-store", "", "base URL of a remote artifact store used as a read-through tier over -cache")
	fs.DurationVar(&f.RemoteConnect, "remote-connect-timeout", 5*time.Second, "dial timeout for remote-store/coordinator RPCs")
	fs.DurationVar(&f.RemoteTimeout, "remote-timeout", 60*time.Second, "response-header timeout per remote RPC (not an overall cap; long polls and large transfers may run longer)")
	fs.Int64Var(&f.Interval, "interval", 0, "sampling interval in instructions (0 = per-workload default)")
	fs.StringVar(&f.Features, "features", "", "SimPoint clustering features: bbv|bbv+mav (empty = bbv)")
	fs.IntVar(&f.SPDims, "sp-dims", 0, "SimPoint projection dimensions (0 = flow default)")
	fs.IntVar(&f.SPMaxK, "sp-maxk", 0, "SimPoint cluster-count ceiling (0 = flow default)")
	fs.StringVar(&f.Warmup, "warmup", "", "warm-up before each measured SimPoint: none, an instruction count, or a factor like 5x (empty = flow default)")
	return f
}

// RegisterMetrics additionally declares -metrics/-metrics-out for tools
// that render a metrics registry after their report.
func (f *Flags) RegisterMetrics(fs *flag.FlagSet) {
	f.hasMetrics = true
	fs.StringVar(&f.MetricsMode, "metrics", "", "emit flow metrics after the report: text|json")
	fs.StringVar(&f.MetricsOut, "metrics-out", "-", "metrics destination (- = stdout)")
}

// Validate checks cross-flag consistency and value ranges. It must run
// after fs.Parse. Errors name the offending flag.
func (f *Flags) Validate() error {
	explicitJobs := false
	f.fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "j" {
			explicitJobs = true
		}
	})
	if explicitJobs && f.Jobs <= 0 {
		return fmt.Errorf("-j %d: parallelism must be ≥ 1 (omit -j to use all cores)", f.Jobs)
	}
	if f.Retries < 0 {
		return fmt.Errorf("-retries %d: must be ≥ 0", f.Retries)
	}
	if f.StageTimeout < 0 {
		return fmt.Errorf("-stage-timeout %s: must be ≥ 0", f.StageTimeout)
	}
	if f.RemoteConnect <= 0 {
		return fmt.Errorf("-remote-connect-timeout %s: must be > 0", f.RemoteConnect)
	}
	if f.RemoteTimeout <= 0 {
		return fmt.Errorf("-remote-timeout %s: must be > 0", f.RemoteTimeout)
	}
	if f.CacheDir == "" {
		if f.CacheVerify {
			return fmt.Errorf("-cache-verify requires -cache DIR")
		}
		if f.Resume {
			return fmt.Errorf("-resume requires -cache DIR (the journal lives there)")
		}
		if f.RemoteStore != "" {
			return fmt.Errorf("-remote-store requires -cache DIR (the local read-through tier)")
		}
	}
	if f.Chaos != "" {
		inj, err := faultinject.Parse(f.Chaos)
		if err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
		f.injector = inj
	}
	policy, insts, factor, err := sampling.ParseWarmup(f.Warmup)
	if err != nil {
		return fmt.Errorf("-warmup: %w", err)
	}
	f.sspec = sampling.Spec{
		Interval:     f.Interval,
		Features:     f.Features,
		Dims:         f.SPDims,
		MaxK:         f.SPMaxK,
		WarmupPolicy: policy,
		WarmupInsts:  insts,
		WarmupFactor: factor,
	}
	if err := f.sspec.Validate(); err != nil {
		return err
	}
	if f.hasMetrics {
		switch f.MetricsMode {
		case "", "text", "json":
		default:
			return fmt.Errorf("unknown -metrics mode %q (text|json)", f.MetricsMode)
		}
	}
	return nil
}

// Options validates the flags and builds the corresponding engine options.
// Metrics are not included — callers that want instrumentation append
// core.WithMetrics with the registry from MetricsRegistry, so they keep the
// handle for rendering.
func (f *Flags) Options() ([]core.Option, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	var opts []core.Option
	if f.Jobs > 0 {
		opts = append(opts, core.WithParallelism(f.Jobs))
	}
	if f.CacheDir != "" {
		opts = append(opts, core.WithCache(f.CacheDir), core.WithCacheVerify(f.CacheVerify))
	}
	if f.RemoteStore != "" {
		opts = append(opts, core.WithRemoteStore(artifact.NewRemote(f.RemoteStore, f.RemoteClient(""))))
	}
	if f.KeepGoing {
		opts = append(opts, core.WithKeepGoing(true))
	}
	if f.Resume {
		opts = append(opts, core.WithResume(true))
	}
	if f.Retries > 0 {
		opts = append(opts, core.WithRetry(f.Retries, RetryBackoff))
	}
	if f.StageTimeout > 0 {
		opts = append(opts, core.WithStageTimeout(f.StageTimeout))
	}
	if f.injector != nil {
		opts = append(opts, core.WithFaultInjector(f.injector))
	}
	if !f.sspec.IsZero() {
		opts = append(opts, core.WithSampling(f.sspec))
	}
	return opts, nil
}

// Sampling returns the spec assembled from -interval/-features/-sp-dims/
// -sp-maxk/-warmup (the zero spec when none were set). Call after
// Validate. Daemons thread it into their own defaults (cmd/boomd →
// serve.Config.Sampling); sweep CLIs stamp it on the campaign so it
// becomes part of the fingerprint.
func (f *Flags) Sampling() sampling.Spec { return f.sspec }

// RemoteClient builds the HTTP client every remote tier (remote store,
// fabric coordinator) should use: split connect/response-header timeouts
// from -remote-connect-timeout/-remote-timeout, with the -chaos plan's
// network-boundary sites armed via a faultinject.Transport when a plan is
// set. peer scopes per-node chaos rules (the fabric worker ID); leave it
// empty for unscoped clients. Call after Validate.
func (f *Flags) RemoteClient(peer string) *http.Client {
	hc := artifact.NewHTTPClient(f.RemoteConnect, f.RemoteTimeout)
	if f.injector != nil {
		hc = &http.Client{Transport: &faultinject.Transport{
			Injector: f.injector,
			Base:     hc.Transport,
			Peer:     peer,
		}}
	}
	return hc
}

// Injector returns the parsed -chaos plan (nil when unset). Call after
// Validate.
func (f *Flags) Injector() *faultinject.Injector { return f.injector }

// MetricsRegistry returns a fresh registry when -metrics was requested
// (after Validate), or nil when metrics are off.
func (f *Flags) MetricsRegistry() *metrics.Registry {
	if !f.hasMetrics || f.MetricsMode == "" {
		return nil
	}
	return metrics.NewRegistry()
}

// EmitMetrics renders reg per -metrics/-metrics-out. stdout is the tool's
// standard output (used when -metrics-out is "-" or empty).
func (f *Flags) EmitMetrics(reg *metrics.Registry, stdout io.Writer) error {
	if reg == nil {
		return nil
	}
	dst := stdout
	if f.MetricsOut != "-" && f.MetricsOut != "" {
		file, err := os.Create(f.MetricsOut)
		if err != nil {
			return err
		}
		defer file.Close()
		dst = file
	}
	if f.MetricsMode == "json" {
		return reg.WriteJSON(dst)
	}
	return reg.WriteText(dst)
}
