package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// requestGen draws the serve-warm request mix: each request is every
// workload, in a seed-drawn order, on one seed-drawn config. Order is part
// of a campaign's identity, so no two requests are the same campaign and
// the server cannot collapse one onto an earlier job, yet every request
// reads the same artifacts: warm-read cost is dominated by a workload's
// profile chain (one workload's checkpoints dwarf another's), so requests
// over workload subsets would make the latency distribution, and its
// median, depend on which subsets the seed happened to draw.
type requestGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	names   []string
	configs []string
	seen    map[string]bool
}

func newRequestGen(seed int64, names, configs []string) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed)), names: names, configs: configs, seen: map[string]bool{}}
}

func (g *requestGen) next() serve.SweepRequest {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		req := serve.SweepRequest{Configs: []string{g.configs[g.rng.Intn(len(g.configs))]}}
		for _, i := range g.rng.Perm(len(g.names)) {
			req.Workloads = append(req.Workloads, g.names[i])
		}
		key := strings.Join(req.Workloads, ",") + "|" + req.Configs[0]
		if !g.seen[key] {
			g.seen[key] = true
			return req
		}
	}
}

// served is one request's record.
type served struct {
	latency, submit, result float64 // s
	bytes                   int
	cells                   int
	detailed                uint64
	err                     error
}

// serveClient submits one campaign and fetches its full result.
type serveClient struct {
	base  string
	hc    *http.Client
	scale string
	rows  map[string]serve.ResultRow // setup sweep rows by config/workload
}

func (c *serveClient) do(ctx context.Context, req serve.SweepRequest) served {
	var s served
	req.Scale = c.scale
	body, err := json.Marshal(req)
	if err != nil {
		s.err = err
		return s
	}
	t0 := time.Now()
	st, code, err := c.call(ctx, http.MethodPost, "/v1/sweeps", body)
	s.submit = since(t0)
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		s.err = fmt.Errorf("submit: status %d: %v %s", code, err, st)
		return s
	}
	var status serve.Status
	if err := json.Unmarshal(st, &status); err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}
	t1 := time.Now()
	raw, code, err := c.call(ctx, http.MethodGet, "/v1/sweeps/"+status.ID+"/result?wait=1", nil)
	s.result = since(t1)
	s.latency = since(t0)
	s.bytes = len(raw)
	if err != nil || code != http.StatusOK {
		s.err = fmt.Errorf("result: status %d: %v %s", code, err, raw)
		return s
	}
	var res serve.SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		s.err = fmt.Errorf("result: %w", err)
		return s
	}
	s.err = c.check(req, &res)
	s.cells = len(res.Rows)
	for _, row := range res.Rows {
		s.detailed += row.DetailedInsts
	}
	return s
}

// check fails unless the response holds exactly the requested cells and
// each row equals the matching row of the setup sweep.
func (c *serveClient) check(req serve.SweepRequest, res *serve.SweepResult) error {
	if len(res.Failed) > 0 {
		return fmt.Errorf("failed cells %v", res.Failed)
	}
	if len(res.Rows) != len(req.Workloads)*len(req.Configs) {
		return fmt.Errorf("%d rows for %d workloads x %d configs", len(res.Rows), len(req.Workloads), len(req.Configs))
	}
	for _, row := range res.Rows {
		if want, ok := c.rows[row.Config+"/"+row.Workload]; !ok || row != want {
			return fmt.Errorf("row %s/%s differs from the setup sweep", row.Config, row.Workload)
		}
	}
	return nil
}

func (c *serveClient) call(ctx context.Context, method, path string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// serveWarm runs boomd's submit → result path against a warm cache: no
// simulation, every stage a cache read.
func serveWarm(e *runEnv) (*outcome, error) {
	o := newOutcome()
	names := workloads.Names()
	configs := boom.Configs()
	camp := core.NewCampaign(names, configs, e.scale)
	want, err := e.sweepDigest()
	if err != nil {
		return nil, err
	}

	// Setup: fill the cache with one cold sweep, boot the server.
	t0 := time.Now()
	if err := e.prepare(o, names, e.scale); err != nil {
		return nil, err
	}
	dir, err := e.freshDir("serve-warm")
	if err != nil {
		return nil, err
	}
	runner := core.New(core.FlowConfigFor(e.scale), core.WithScale(e.scale), core.WithCache(dir), core.WithParallelism(e.nproc))
	sw, err := runner.Sweep(e.ctx, camp)
	if err != nil {
		return nil, fmt.Errorf("serve-warm setup sweep: %w", err)
	}
	enc, err := serve.EncodeSweep("equiv", e.scale, sw)
	if err != nil {
		return nil, err
	}
	if err := digestGate("serve-warm setup sweep", enc, want); err != nil {
		o.problem("%v", err)
	}
	var setupRes serve.SweepResult
	if err := json.Unmarshal(enc, &setupRes); err != nil {
		return nil, err
	}
	rows := map[string]serve.ResultRow{}
	for _, row := range setupRes.Rows {
		rows[row.Config+"/"+row.Workload] = row
	}
	var reg *metrics.Registry
	if e.trace {
		reg = metrics.NewRegistry()
	}
	srv, err := serve.New(serve.Config{CacheDir: dir, Parallelism: e.nproc, QueueDepth: 2 * e.nproc, Registry: reg})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	client := &serveClient{base: "http://" + ln.Addr().String(), hc: &http.Client{}, scale: e.scale.String(), rows: rows}
	if _, code, err := client.call(e.ctx, http.MethodGet, "/healthz", nil); err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("serve-warm: server not healthy: %d %v", code, err)
	}
	o.setup = append(o.setup, since(t0))

	// Timed: a closed loop of nproc clients.
	cfgNames := camp.ConfigNames()
	gen := newRequestGen(e.seed, names, cfgNames)
	mem := startWindow()
	start := time.Now()
	deadline := start.Add(e.seconds)
	var mu sync.Mutex
	var all []served
	var wg sync.WaitGroup
	for i := 0; i < e.nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := client.do(e.ctx, gen.next())
				mu.Lock()
				all = append(all, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o.timedWall = since(start)
	o.memWindow(mem)

	var submit, result, size []float64
	for _, s := range all {
		o.attempted++
		if s.err != nil {
			o.failed++
			if len(o.problems) < 5 {
				o.problem("serve-warm request: %v", s.err)
			}
			continue
		}
		o.campaigns = append(o.campaigns, s.latency)
		o.cells += s.cells
		o.detailed += s.detailed
		submit = append(submit, s.submit)
		result = append(result, s.result)
		size = append(size, float64(s.bytes))
	}
	lat := summarize(o.campaigns)
	o.addInfo("latency_p50_ms", lat.Median*1e3, "ms", fmt.Sprintf("submit to full result body, n=%d", lat.N))
	if lat.TailOK {
		o.addInfo("latency_tail_ms", lat.Tail*1e3, "ms", fmt.Sprintf("p%.1f, n=%d", lat.TailPct, lat.N))
	} else {
		o.addInfo("latency_tail_ms", 0, "ms", fmt.Sprintf("no percentile has %d samples beyond it (n=%d)", tailBeyond, lat.N))
	}

	if e.trace {
		artifactLayers(o.layers, reg)
		o.layers["serve.submit_ms"] = median(submit) * 1e3
		o.layers["serve.result_ms"] = median(result) * 1e3
		o.layers["serve.result_bytes"] = median(size)
		// The traced pass reads back what a request reads: every profile
		// chain and measurement from the warm cache.
		err := e.traced(o, traceSample{scale: e.scale, workloads: names, configs: configs, cacheDir: dir, readBack: sw})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}
