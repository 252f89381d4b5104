// Cross-node conformance suite: proves the distributed sweep plane is
// invisible in the results. A campaign sharded across an in-process
// cluster of coordinator + workers (real HTTP between them, real leases,
// real artifact store) must produce results byte-identical to a direct
// single-node Runner.Sweep — pinned against the same golden digests the
// single-node equivalence suite uses (testdata/equivalence_golden.txt),
// so fabric output is anchored to the exact bytes the paper's tables were
// generated from, not merely to "whatever the engine produces today".
// The identity must survive chaos: a worker killed mid-campaign, injected
// lease faults, a coordinator restart resuming from journal fragments.
package fabric_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fabric"
	"repro/internal/faultinject"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// cluster is one in-process coordinator + N workers wired over real HTTP.
type cluster struct {
	coord      *fabric.Coordinator
	coordReg   *metrics.Registry
	ts         *httptest.Server
	workerRegs []*metrics.Registry
	workerDirs []string // each worker's CacheDir
	cancel     context.CancelFunc
	wg         sync.WaitGroup
}

type clusterOpts struct {
	workers  int
	lease    time.Duration
	resume   bool
	storeDir string  // shared across restarts; "" = fresh temp dir
	chaos    string  // coordinator-side injector spec
	audit    float64 // fabric.Config.AuditFrac
	// workerChaos[i] arms worker-i's own injector (pipeline sites plus the
	// "fabric.payload/<id>" lying-worker site); missing/empty = honest.
	workerChaos []string
	// netChaos wraps every worker's HTTP client in a faultinject.Transport.
	// Each worker parses its own injector from the spec (independent hit
	// counters) with Peer set to its ID, so both broadcast rules
	// ("fabric.report=error") and per-worker rules
	// ("artifact.remote.get/worker-1=corrupt") stay deterministic.
	netChaos string
	// log receives the coordinator's and workers' lifecycle lines (nil =
	// t.Logf).
	log func(format string, args ...interface{})
}

func startCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	if o.storeDir == "" {
		o.storeDir = t.TempDir()
	}
	if o.log == nil {
		o.log = t.Logf
	}
	var inj *faultinject.Injector
	if o.chaos != "" {
		var err error
		if inj, err = faultinject.Parse(o.chaos); err != nil {
			t.Fatal(err)
		}
	}
	c := &cluster{coordReg: metrics.NewRegistry()}
	c.coord = fabric.NewCoordinator(fabric.Config{
		Store:      artifact.Open(o.storeDir),
		Registry:   c.coordReg,
		Lease:      o.lease,
		Poll:       10 * time.Millisecond,
		Resume:     o.resume,
		JournalDir: o.storeDir,
		AuditFrac:  o.audit,
		Injector:   inj,
		Log:        o.log,
	})
	c.ts = httptest.NewServer(c.coord.Handler())

	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := 0; i < o.workers; i++ {
		reg := metrics.NewRegistry()
		c.workerRegs = append(c.workerRegs, reg)
		id := fmt.Sprintf("worker-%d", i)
		var winj *faultinject.Injector
		if i < len(o.workerChaos) && o.workerChaos[i] != "" {
			var err error
			if winj, err = faultinject.Parse(o.workerChaos[i]); err != nil {
				t.Fatal(err)
			}
		}
		hc := c.ts.Client()
		if o.netChaos != "" {
			ninj, err := faultinject.Parse(o.netChaos)
			if err != nil {
				t.Fatal(err)
			}
			hc = &http.Client{Transport: &faultinject.Transport{
				Injector: ninj,
				Base:     c.ts.Client().Transport,
				Peer:     id,
			}}
		}
		dir := t.TempDir()
		c.workerDirs = append(c.workerDirs, dir)
		w, err := fabric.NewWorker(fabric.WorkerConfig{
			Coordinator: c.ts.URL,
			ID:          id,
			CacheDir:    dir,
			Registry:    reg,
			Injector:    winj,
			HTTPClient:  hc,
			Log:         o.log,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() { c.stop() })
	return c
}

func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
	c.ts.Close()
}

// workerCounterSum sums one counter across every worker registry.
func (c *cluster) workerCounterSum(name string) int64 {
	var n int64
	for _, reg := range c.workerRegs {
		n += reg.Counter(name).Value()
	}
	return n
}

// goldenDigests loads the repo-root equivalence golden into key→digest.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "equivalence_golden.txt"))
	if err != nil {
		t.Fatalf("read equivalence golden: %v", err)
	}
	out := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if k, v, ok := strings.Cut(ln, " "); ok {
			out[k] = v
		}
	}
	return out
}

// checkAgainstGolden verifies every simpoint cell digest and the whole
// sweep's canonical JSON digest against the pinned golden values.
func checkAgainstGolden(t *testing.T, sw *core.Sweep) {
	t.Helper()
	checkCellsAgainstGolden(t, sw)
	enc, err := serve.EncodeSweep("equiv", workloads.ScaleTiny, sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != goldenDigests(t)["sweepjson"] {
		t.Errorf("sweepjson: distributed digest %s, golden %s", got, goldenDigests(t)["sweepjson"])
	}
}

// checkCellsAgainstGolden verifies the simpoint digest of every cell of a
// (possibly partial) tiny-scale sweep against the pinned golden values.
func checkCellsAgainstGolden(t *testing.T, sw *core.Sweep) {
	t.Helper()
	golden := goldenDigests(t)
	for _, cfg := range sw.ConfigNames {
		for _, name := range sw.Names {
			res := sw.Results[cfg][name]
			if res == nil || res.Stats == nil {
				t.Errorf("missing result for %s/%s", cfg, name)
				continue
			}
			var buf bytes.Buffer
			if err := boom.EncodeStats(&buf, res.Stats); err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("simpoint/%s/%s", cfg, name)
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != golden[key] {
				t.Errorf("%s: distributed digest %s, golden %s", key, got, golden[key])
			}
		}
	}
}

// directBytes runs the campaign on a plain single-node Runner and encodes
// it canonically — the reference the distributed bytes must equal.
func directBytes(t *testing.T, id string, camp core.Campaign) []byte {
	t.Helper()
	r := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestConformanceThreeWorkers is the tentpole conformance matrix: all 11
// workloads × all 3 registered configs sharded across 3 workers, merged
// result pinned to the single-node golden digests cell by cell and as
// canonical sweep JSON.
func TestConformanceThreeWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×3 distributed matrix")
	}
	c := startCluster(t, clusterOpts{workers: 3})
	camp := core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny)

	sw, err := c.coord.RunCampaign(context.Background(), "conformance-11x3", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstGolden(t, sw)

	// The whole matrix really was distributed: every cell completed via
	// done-reports, and more than one worker did the work.
	if n := c.coordReg.Counter("fabric.cells_done").Value(); n != int64(11*3+11) {
		t.Errorf("cells_done %d, want %d (11 profile + 33 measure)", n, 11*3+11)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 0 {
		t.Errorf("local_fallback %d: the cluster must not have fallen back", n)
	}
	busy := 0
	for i := range c.workerRegs {
		if c.coordReg.Counter(fmt.Sprintf("fabric.cells_done.worker-%d", i)).Value() > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("only %d worker(s) did any cells; the matrix was not sharded", busy)
	}

	// The status endpoint sees the cluster.
	resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status fabric.StatusReply
	if err := jsonDecode(resp, &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Workers) != 3 {
		t.Errorf("status lists %d workers, want 3", len(status.Workers))
	}
}

// TestConformanceSamplingSpec: a spec-bearing campaign (bbv+mav
// clustering, proportional warm-up) sharded across two workers must
// produce bytes identical to a direct single-node sweep of the same
// campaign — the campaignWire round trip and the workers' WithSampling
// runners reproduce the sampling parameters exactly, so the distributed
// plane stays invisible for non-legacy specs too.
func TestConformanceSamplingSpec(t *testing.T) {
	camp := core.NewCampaign([]string{"sha", "dijkstra"},
		[]boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	camp.Sampling = sampling.Recommended()
	want := directBytes(t, "sampling-2w", camp)

	c := startCluster(t, clusterOpts{workers: 2})
	sw, err := c.coord.RunCampaign(context.Background(), "sampling-2w", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := serve.EncodeSweep("sampling-2w", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("distributed spec-bearing bytes differ from single-node:\n got %s\nwant %s", enc, want)
	}
	if !bytes.Contains(enc, []byte(`"sampling":"features=bbv+mav warmup=5x"`)) {
		t.Fatalf("merged encoding is missing the sampling field: %s", enc)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 0 {
		t.Errorf("local_fallback %d: the cluster must not have fallen back", n)
	}
}

// TestConformanceWorkerKill re-runs the full matrix with a worker killed
// mid-campaign (its context dies between lease grant and execution, so it
// goes silent holding a lease). The coordinator must steal the orphaned
// cell back and the merged result must stay golden — node death degrades
// to latency, never to a wrong or missing cell.
func TestConformanceWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("full 11×3 distributed matrix under chaos")
	}
	c := startCluster(t, clusterOpts{workers: 2, lease: time.Second})
	// A third worker with its own context: its task hook kills it the
	// moment it is handed its 2nd cell, after the lease grant but before
	// any work or report — the cell is orphaned under a live lease.
	w0ctx, w0cancel := context.WithCancel(context.Background())
	defer w0cancel()
	var w0tasks atomic.Int64
	w0, err := fabric.NewWorker(fabric.WorkerConfig{
		Coordinator: c.ts.URL,
		ID:          "doomed",
		CacheDir:    t.TempDir(),
		Registry:    metrics.NewRegistry(),
		HTTPClient:  c.ts.Client(),
		TaskHook: func(fabric.Task) {
			if w0tasks.Add(1) == 2 {
				w0cancel() // die holding the lease
			}
		},
		Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w0.Run(w0ctx) }()

	camp := core.NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "chaos-kill-11x3", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-done // the doomed worker actually died mid-campaign
	checkAgainstGolden(t, sw)

	if n := c.coordReg.Counter("fabric.cells_stolen").Value(); n < 1 {
		t.Errorf("cells_stolen %d: the dead worker's lease was never reclaimed", n)
	}
	if n := c.coordReg.Counter("fabric.cells_failed").Value(); n != 0 {
		t.Errorf("cells_failed %d: a worker kill must not fail cells", n)
	}
	if got := w0tasks.Load(); got != 2 {
		t.Errorf("doomed worker saw %d tasks, want exactly 2 (one done, one orphaned)", got)
	}
}

// TestCoordinatorRestartResume: kill the coordinator mid-campaign, start
// a fresh one over the same journal/store directory with Resume on, and
// finish. Cells journaled before the crash must not recompute, and the
// final bytes must equal the direct single-node encoding.
func TestCoordinatorRestartResume(t *testing.T) {
	shared := t.TempDir()
	camp := core.NewCampaign([]string{"sha", "qsort"},
		mustConfigs(t, "MediumBOOM", "MegaBOOM"), workloads.ScaleTiny)
	const id = "restart-resume-campaign"

	// Phase A: run until at least 2 cells are done, then kill the
	// coordinator (cancel RunCampaign and tear the cluster down).
	a := startCluster(t, clusterOpts{workers: 2, storeDir: shared})
	actx, acancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if a.coordReg.Counter("fabric.cells_done").Value() >= 2 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		acancel()
	}()
	if _, err := a.coord.RunCampaign(actx, id, camp, nil); err == nil {
		t.Fatal("phase A was supposed to die mid-campaign")
	}
	doneA := a.coordReg.Counter("fabric.cells_done").Value()
	if doneA < 2 {
		t.Fatalf("phase A journaled only %d cells", doneA)
	}
	a.stop()

	// Phase B: new coordinator, same journal + store, resume.
	b := startCluster(t, clusterOpts{workers: 2, storeDir: shared, resume: true})
	sw, err := b.coord.RunCampaign(context.Background(), id, camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	resumed := b.coordReg.Counter("fabric.cells_resumed").Value()
	if resumed < 1 {
		t.Errorf("cells_resumed %d: the journal fragment was not replayed", resumed)
	}
	if total := resumed + b.coordReg.Counter("fabric.cells_done").Value(); total != 6 {
		t.Errorf("resumed %d + done %d ≠ 6 cells", resumed, total-resumed)
	}

	enc, err := serve.EncodeSweep(id, camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, id, camp); !bytes.Equal(enc, want) {
		t.Errorf("resumed distributed bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}
}

// TestWorkerPanicRecovered: a worker runs its cells through
// core.Runner.RunCell, the supervisor Runner.Sweep uses, so a panic in a
// cell comes back as the same *StageError a single node reports — stage,
// workload, config, "(recovered panic)" — not a bare message. The worker
// survives, the coordinator regrants the cell, and the campaign stays
// golden.
func TestWorkerPanicRecovered(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	c := startCluster(t, clusterOpts{
		workers:     1,
		workerChaos: []string{"1:core.measure/sha/MediumBOOM=panic"},
		log: func(format string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
			t.Logf(format, args...)
		},
	})
	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "panic-once", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkCellsAgainstGolden(t, sw)
	enc, err := serve.EncodeSweep("panic-once", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "panic-once", camp); !bytes.Equal(enc, want) {
		t.Errorf("campaign bytes after a recovered panic differ from direct run")
	}

	const want = "stage measure workload=sha config=MediumBOOM (recovered panic)"
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, ln := range lines {
		if strings.Contains(ln, "failed on worker-0") && strings.Contains(ln, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("no coordinator log line reports %q; log:\n%s", want, strings.Join(lines, "\n"))
	}
	if n := c.workerRegs[0].Counter("core.sweep.panics").Value(); n != 1 {
		t.Errorf("worker core.sweep.panics = %d, want 1", n)
	}
}

// TestWorkersKeepNoJournal: only the coordinator journals a campaign;
// every cell a worker finishes reaches that journal through its done
// report, so no worker writes a journal of its own.
func TestWorkersKeepNoJournal(t *testing.T) {
	store := t.TempDir()
	c := startCluster(t, clusterOpts{workers: 2, storeDir: store})
	camp := core.NewCampaign([]string{"sha", "qsort"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	const id = "no-worker-journal"
	if _, err := c.coord.RunCampaign(context.Background(), id, camp, nil); err != nil {
		t.Fatal(err)
	}
	c.stop()
	for i, dir := range c.workerDirs {
		found, err := filepath.Glob(filepath.Join(dir, "fabric-*.journal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(found) > 0 {
			t.Errorf("worker-%d wrote journal(s) %v", i, found)
		}
	}
	if cells := journal.Read(id, fabric.FragmentPath(store, id)).Cells; len(cells) != 4 {
		t.Errorf("coordinator journal lists %d cells, want 4", len(cells))
	}
}

// TestWarmProfileEconomy: the remote store must extend the paper's
// shared-stage economy across machines. A parametric 4-point DSE campaign
// over one workload on 3 workers must run the profile→select→checkpoint
// chain exactly once cluster-wide (every other worker fetches it), one
// measure per design point — and still produce the direct run's bytes.
func TestWarmProfileEconomy(t *testing.T) {
	cfgs, err := dse.Expand(dse.Spec{
		Base: "MediumBOOM",
		Axes: []dse.Axis{
			{Param: "rob", Values: []string{"48", "64"}},
			{Param: "predictor", Values: []string{"tage", "gshare"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("expanded %d configs, want 4", len(cfgs))
	}
	camp := core.NewCampaign([]string{"sha"}, cfgs, workloads.ScaleTiny)

	c := startCluster(t, clusterOpts{workers: 3})
	sw, err := c.coord.RunCampaign(context.Background(), "dse-economy", camp, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Miss-count accounting across every worker: each profile stage
	// computed exactly once cluster-wide, each measure cell exactly once.
	for _, stage := range []string{"bbv", "select", "checkpoint"} {
		if n := c.workerCounterSum("artifact." + stage + ".miss"); n != 1 {
			t.Errorf("cluster-wide %s misses %d, want exactly 1 (one compute, rest fetched)", stage, n)
		}
	}
	if n := c.workerCounterSum("artifact.measure.miss"); n != 4 {
		t.Errorf("cluster-wide measure misses %d, want 4 (one per design point)", n)
	}
	if n := c.workerCounterSum("artifact.remote.fetch"); n < 1 {
		t.Errorf("remote fetches %d: no worker used the store, economy untested", n)
	}
	if n := c.workerCounterSum("artifact.remote.push"); n < 7 {
		t.Errorf("remote pushes %d, want ≥7 (3 profile stages + 4 measures)", n)
	}

	enc, err := serve.EncodeSweep("dse", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "dse", camp); !bytes.Equal(enc, want) {
		t.Errorf("warm distributed bytes differ from direct run:\n got %s\nwant %s", enc, want)
	}
}

// TestLeaseFaultInjection: the "fabric.lease" chaos site fails lease
// grants; workers back off and retry, and the campaign completes with the
// direct run's exact bytes.
func TestLeaseFaultInjection(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 2, chaos: "11:fabric.lease=errorx5"})
	camp := core.NewCampaign([]string{"sha", "qsort"},
		mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	sw, err := c.coord.RunCampaign(context.Background(), "lease-faults", camp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.coordReg.Counter("fabric.lease_faults").Value(); n != 5 {
		t.Errorf("lease_faults %d, want the full injected 5", n)
	}
	enc, err := serve.EncodeSweep("lf", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "lf", camp); !bytes.Equal(enc, want) {
		t.Errorf("faulted distributed bytes differ from direct run")
	}
}

// TestStatusDraining: while the drain check reports true, the fabric
// status endpoint answers 503 with a Retry-After header and a typed JSON
// error — and recovers to 200 when the drain check clears.
func TestStatusDraining(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0})
	var draining atomic.Bool
	c.coord.SetDrainCheck(draining.Load)

	get := func() *http.Response {
		t.Helper()
		resp, err := c.ts.Client().Get(c.ts.URL + "/v1/fabric/status")
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := get()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status before drain: %s", resp.Status)
	}
	resp.Body.Close()

	draining.Store(true)
	resp = get()
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining status code %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("draining 503 missing Retry-After header")
	}
	if !strings.Contains(string(body[:n]), "draining") {
		t.Errorf("draining body %q lacks a typed error", body[:n])
	}

	draining.Store(false)
	resp = get()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status after drain cleared: %s", resp.Status)
	}
	resp.Body.Close()
}

// TestLocalFallback: a coordinator with zero live workers runs the
// campaign on the job's local runner — a solo boomd is the pre-fabric
// daemon, byte for byte.
func TestLocalFallback(t *testing.T) {
	c := startCluster(t, clusterOpts{workers: 0})
	camp := core.NewCampaign([]string{"sha"}, mustConfigs(t, "MediumBOOM"), workloads.ScaleTiny)
	local := core.New(core.FlowConfigFor(camp.Scale), core.WithScale(camp.Scale))
	sw, err := c.coord.RunCampaign(context.Background(), "fallback", camp, local)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.coordReg.Counter("fabric.local_fallback").Value(); n != 1 {
		t.Errorf("local_fallback %d, want 1", n)
	}
	enc, err := serve.EncodeSweep("fb", camp.Scale, sw)
	if err != nil {
		t.Fatal(err)
	}
	if want := directBytes(t, "fb", camp); !bytes.Equal(enc, want) {
		t.Errorf("fallback bytes differ from direct run")
	}
}

func mustConfigs(t *testing.T, names ...string) []boom.Config {
	t.Helper()
	out := make([]boom.Config, len(names))
	for i, n := range names {
		cfg, err := boom.ConfigByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cfg
	}
	return out
}

func jsonDecode(resp *http.Response, v interface{}) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
