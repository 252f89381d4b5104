package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// rpcTimer is an http.RoundTripper that counts and times each fabric RPC
// by endpoint. It is handed to the workers through
// fabric.WorkerConfig.HTTPClient, so it sees every worker → coordinator
// call, artifact store traffic included.
type rpcTimer struct {
	base http.RoundTripper
	mu   sync.Mutex
	n    map[string]int
	ns   map[string]int64
}

// rpcEndpoints are the endpoint names rpcTimer reports.
var rpcEndpoints = []string{"register", "poll", "heartbeat", "report", "campaign", "artifact_get", "artifact_put"}

func rpcEndpoint(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/v1/artifacts/"):
		if method == http.MethodPut {
			return "artifact_put"
		}
		if method == http.MethodGet {
			return "artifact_get"
		}
		return "artifact_other"
	case path == "/v1/fabric/workers":
		return "register"
	case path == "/v1/fabric/poll":
		return "poll"
	case path == "/v1/fabric/heartbeat":
		return "heartbeat"
	case path == "/v1/fabric/done":
		return "report"
	case strings.HasPrefix(path, "/v1/fabric/campaigns/"):
		return "campaign"
	}
	return "other"
}

func (t *rpcTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	ns := time.Since(t0).Nanoseconds()
	ep := rpcEndpoint(req.Method, req.URL.Path)
	t.mu.Lock()
	t.n[ep]++
	t.ns[ep] += ns
	t.mu.Unlock()
	return resp, err
}

// cluster is one coordinator plus in-process workers over loopback HTTP.
type cluster struct {
	coord  *fabric.Coordinator
	hs     *http.Server
	cancel context.CancelFunc
	wg     sync.WaitGroup
	regs   []*metrics.Registry // one per worker
}

// startCluster boots a coordinator serving the remote artifact store from
// a fresh directory and nproc workers (Parallelism 1 each) with fresh
// local caches, and waits until every worker has registered.
func startCluster(e *runEnv, timer *rpcTimer) (*cluster, error) {
	store, err := e.freshDir("fabric-store")
	if err != nil {
		return nil, err
	}
	c := &cluster{coord: fabric.NewCoordinator(fabric.Config{Store: artifact.Open(store), JournalDir: store})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.hs = &http.Server{Handler: c.coord.Handler()}
	go c.hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(e.ctx)
	c.cancel = cancel
	for i := 0; i < e.nproc; i++ {
		dir, err := e.freshDir("fabric-worker")
		if err != nil {
			c.stop()
			return nil, err
		}
		reg := metrics.NewRegistry()
		c.regs = append(c.regs, reg)
		cfg := fabric.WorkerConfig{Coordinator: url, ID: fmt.Sprintf("worker-%d", i), CacheDir: dir, Registry: reg, Parallelism: 1}
		if timer != nil {
			cfg.HTTPClient = &http.Client{Transport: timer}
		}
		w, err := fabric.NewWorker(cfg)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			w.Run(ctx)
		}()
	}
	for c.coord.LiveWorkers() < e.nproc {
		if ctx.Err() != nil {
			c.stop()
			return nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	return c, nil
}

// stop cancels the workers, waits for them to exit and closes the server.
func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
	c.hs.Close()
}

// fabricTiny runs the tiny 11x3 campaign through the fabric and then
// through a local Runner.Sweep at the same compute budget; the cells are
// short, so lease, poll, report and store overhead is a large share.
func fabricTiny(e *runEnv) (*outcome, error) {
	o := newOutcome()
	scale := workloads.ScaleTiny
	camp := core.NewCampaign(workloads.Names(), boom.Configs(), scale)
	want, err := goldenSweepJSON(e.golden)
	if err != nil {
		return nil, err
	}

	var timer *rpcTimer
	if e.trace {
		// The transport boomd workers build by default, timed.
		base := artifact.NewHTTPClient(5*time.Second, 60*time.Second).Transport
		timer = &rpcTimer{base: base, n: map[string]int{}, ns: map[string]int64{}}
	}
	var local []float64
	var ratios []float64
	var lastLocal *core.Sweep
	var lastLocalWall float64
	var regs []*metrics.Registry
	deadline := time.Now().Add(e.seconds)
	for len(o.campaigns) == 0 || time.Now().Before(deadline) {
		lastLocal = nil // let the previous sweep's profiles be collected
		t0 := time.Now()
		if err := e.prepare(o, camp.Workloads, scale); err != nil {
			return nil, err
		}
		c, err := startCluster(e, timer)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, since(t0))
		mem := startWindow()
		t0 = time.Now()
		sw, ferr := c.coord.RunCampaign(e.ctx, "fabric-tiny", camp, nil)
		fab := since(t0)
		o.memWindow(mem)
		c.stop()
		regs = append(regs, c.regs...)
		o.campaigns = append(o.campaigns, fab)
		o.timedWall += fab
		o.attempted += camp.Cells()
		if ferr == nil {
			ferr = sweepGate("fabric-tiny", scale, sw, want)
		}
		if ferr != nil {
			o.failed += camp.Cells()
			o.problem("%v", ferr)
			continue
		}
		for _, perCfg := range sw.Results {
			for _, r := range perCfg {
				o.cells++
				o.detailed += r.DetailedInsts
			}
		}

		// The local leg: same campaign, same compute budget, fresh cache.
		dir, err := e.freshDir("fabric-local")
		if err != nil {
			return nil, err
		}
		runner := core.New(core.FlowConfigFor(scale), core.WithScale(scale), core.WithCache(dir), core.WithParallelism(e.nproc))
		t0 = time.Now()
		lsw, lerr := runner.Sweep(e.ctx, camp)
		loc := since(t0)
		if lerr == nil {
			lerr = sweepGate("fabric-tiny local leg", scale, lsw, want)
		}
		if lerr != nil {
			o.problem("%v", lerr)
			continue
		}
		local = append(local, loc)
		ratios = append(ratios, fab/loc)
		lastLocal, lastLocalWall = lsw, loc
	}
	o.addInfo("fabric_overhead_x", median(ratios), "x", fmt.Sprintf("fabric / local campaign_s, median of %d pairs", len(ratios)))
	o.addInfo("local_campaign_s", median(local), "s", "local Runner.Sweep leg")

	if e.trace && lastLocal != nil {
		artifactLayers(o.layers, regs...)
		sweepLayers(o.layers, lastLocal, lastLocalWall, e.nproc, true)
		for _, ep := range rpcEndpoints {
			o.layers["fabric.rpc_count."+ep] = float64(timer.n[ep])
			if n := timer.n[ep]; n > 0 {
				o.layers["fabric.rpc_ms."+ep] = float64(timer.ns[ep]) / float64(n) / 1e6
			}
		}
		err := e.traced(o, traceSample{scale: scale, workloads: camp.Workloads, configs: camp.Configs})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepGate checks a sweep's canonical bytes against a digest.
func sweepGate(what string, scale workloads.Scale, sw *core.Sweep, want string) error {
	enc, err := serve.EncodeSweep("equiv", scale, sw)
	if err != nil {
		return err
	}
	return digestGate(what+" sweepjson", enc, want)
}
