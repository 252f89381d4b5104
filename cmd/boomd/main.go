// Command boomd serves the experiment sweep engine over HTTP: submit a
// campaign (workloads × BOOM configs at a scale), poll or long-poll for
// the canonical result JSON, scrape /metrics for engine and serving
// state. Campaign fingerprints — the same identities the crash-resume
// journal and the artifact cache key on — double as job IDs, so duplicate
// in-flight submissions collapse onto one sweep.
//
//	boomd -addr :8080 -cache .cache -resume -retries 2 &
//	boomctl submit -scale tiny -wait
//
// The queue is bounded (-queue); submissions beyond it get 429 with a
// Retry-After hint. SIGTERM/SIGINT drains gracefully: admission stops
// (/readyz flips to 503), in-flight and queued sweeps run to completion
// within -grace, then the process exits. If the grace expires first the
// sweeps are canceled — every completed task is already journaled under
// -cache, so restarting boomd with -resume and resubmitting the campaign
// recomputes nothing that finished.
//
// boomd is also both halves of the distributed sweep fabric
// (internal/fabric). Every daemon embeds a coordinator: campaigns
// submitted to /v1/sweeps are sharded across any workers registered at
// /v1/fabric/, and run locally when none are (so a solo boomd behaves
// exactly as before). With -cache the coordinator also serves the
// cluster's remote artifact store at /v1/artifacts/. A worker node runs
//
//	boomd -worker -coordinator http://head:8080
//
// which registers with the head daemon, leases (workload × config) cells,
// executes them through the ordinary pipeline (local cache over the
// cluster store), and reports canonical result bytes back. Determinism
// makes the distributed result byte-identical to the single-node one.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/engineflags"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "boomd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("boomd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	ef := engineflags.Register(fs)
	queueDepth := fs.Int("queue", 8, "job queue depth; excess submissions get 429")
	workers := fs.Int("workers", 1, "concurrent sweeps (keep 1 with -cache: the journal is per cache dir)")
	grace := fs.Duration("grace", 30*time.Second, "drain grace on SIGTERM before canceling in-flight sweeps")
	quiet := fs.Bool("q", false, "log lifecycle events only, not per-stage progress")
	workerMode := fs.Bool("worker", false, "run as a fabric worker instead of a daemon (requires -coordinator)")
	coordinator := fs.String("coordinator", "", "coordinator base URL a -worker registers with")
	workerID := fs.String("worker-id", "", "fabric worker identity (default worker-<pid>)")
	lease := fs.Duration("lease", 15*time.Second, "fabric cell lease; a worker silent this long has its cells stolen")
	audit := fs.Float64("audit", 0, "fraction of completed measure cells re-executed on another worker for fingerprint verification (0 = off, 1 = every cell); divergent workers are quarantined")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkModeFlags(fs, *workerMode); err != nil {
		return err
	}
	if err := ef.Validate(); err != nil {
		return err
	}
	if *audit < 0 || *audit > 1 {
		return fmt.Errorf("-audit %v: must be in [0, 1]", *audit)
	}

	logf := func(format string, a ...interface{}) {
		fmt.Fprintf(os.Stderr, "boomd: "+format+"\n", a...)
	}
	if *workerMode {
		return runWorker(*coordinator, *workerID, ef, logf)
	}

	// Every daemon embeds a fabric coordinator; with no registered workers
	// RunCampaign falls back to the job's local runner, so a solo boomd is
	// byte-identical to the pre-fabric service.
	reg := metrics.NewRegistry()
	var store *artifact.Cache
	if ef.CacheDir != "" {
		store = artifact.Open(ef.CacheDir)
	}
	coord := fabric.NewCoordinator(fabric.Config{
		Store:      store,
		Registry:   reg,
		Lease:      *lease,
		KeepGoing:  ef.KeepGoing,
		Resume:     ef.Resume,
		JournalDir: ef.CacheDir,
		AuditFrac:  *audit,
		Injector:   ef.Injector(),
		Log:        logf,
	})
	srv, err := serve.New(serve.Config{
		CacheDir:     ef.CacheDir,
		CacheVerify:  ef.CacheVerify,
		Resume:       ef.Resume,
		Retries:      ef.Retries,
		StageTimeout: ef.StageTimeout,
		KeepGoing:    ef.KeepGoing,
		Chaos:        ef.Chaos,
		Parallelism:  ef.Jobs,
		Sampling:     ef.Sampling(),
		QueueDepth:   *queueDepth,
		SweepWorkers: *workers,
		Log:          logf,
		Progress:     !*quiet,
		Registry:     reg,
		RemoteStore:  ef.RemoteStore,
		Distribute:   coord.RunCampaign,
	})
	if err != nil {
		return err
	}
	coord.SetDrainCheck(srv.Draining)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Stdout so scripts can scrape the bound address (port 0 support).
	fmt.Printf("boomd: listening on %s\n", ln.Addr())

	mux := http.NewServeMux()
	mux.Handle("/v1/fabric/", coord.Handler())
	mux.Handle("/v1/artifacts/", coord.Handler())
	mux.Handle("/", srv.Handler())
	hs := &http.Server{Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logf("signal received; draining (grace %s)", *grace)
	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logf("grace expired; in-flight sweeps canceled (journaled tasks replay with -resume): %v", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	_ = hs.Shutdown(hctx)
	logf("bye")
	return nil
}

// Flags one mode of boomd never reads. A worker executes cells under the
// campaign's own sampling spec and without the daemon's supervision, job
// queue or coordinator settings; a daemon has no coordinator to join.
var (
	workerIgnored = []string{
		"cache-verify", "resume", "retries", "keep-going", "stage-timeout", "remote-store",
		"interval", "features", "sp-dims", "sp-maxk", "warmup",
		"addr", "queue", "workers", "grace", "q", "lease", "audit",
	}
	daemonIgnored = []string{"coordinator", "worker-id"}
)

// checkModeFlags rejects a flag set on the command line that the chosen
// mode would silently ignore. Only explicitly set flags count (fs.Visit),
// so every default stays valid in both modes.
func checkModeFlags(fs *flag.FlagSet, worker bool) error {
	ignored, mode := daemonIgnored, "without -worker"
	if worker {
		ignored, mode = workerIgnored, "in -worker mode"
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(ignored, f.Name) {
			err = fmt.Errorf("-%s has no effect %s", f.Name, mode)
		}
	})
	return err
}

// runWorker is -worker mode: one fabric worker polling a coordinator
// until SIGTERM/SIGINT. The worker's cache directory (-cache, or a temp
// dir) is its local artifact tier over the coordinator's store. RPCs use
// the split -remote-connect-timeout/-remote-timeout client; with -chaos,
// the same plan arms both the pipeline sites and — via the transport
// wrapper — the network-boundary sites, scoped to this worker's ID.
func runWorker(coordinator, id string, ef *engineflags.Flags, logf func(string, ...interface{})) error {
	if coordinator == "" {
		return fmt.Errorf("-worker requires -coordinator URL")
	}
	if id == "" {
		id = fmt.Sprintf("worker-%d", os.Getpid())
	}
	var hc *http.Client
	if ef.Injector() != nil {
		hc = ef.RemoteClient(id)
	}
	w, err := fabric.NewWorker(fabric.WorkerConfig{
		Coordinator:    coordinator,
		ID:             id,
		CacheDir:       ef.CacheDir,
		Registry:       metrics.NewRegistry(),
		Injector:       ef.Injector(),
		HTTPClient:     hc,
		ConnectTimeout: ef.RemoteConnect,
		RPCTimeout:     ef.RemoteTimeout,
		Parallelism:    ef.Jobs,
		Log:            logf,
	})
	if err != nil {
		return err
	}
	fmt.Printf("boomd: worker %s polling %s\n", w.ID(), coordinator)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return err
	}
	logf("worker %s: bye", w.ID())
	return nil
}
