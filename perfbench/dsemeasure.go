package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// dseWorkloads are compute-bound, branchy and memory-bound.
var dseWorkloads = []string{"sha", "qsort", "dijkstra"}

// dsePoints is the number of design points a dse-measure campaign draws.
const dsePoints = 32

// dseSetups is how many times dse-measure fills the profile artifacts per
// run (the median is reported).
const dseSetups = 2

// dseAxes are the parameters design points are drawn over, with values
// around MediumBOOM. Widths are left out: they change cycles per
// instruction, and with it host time per cell, far more than these do,
// which would make the campaign's cost depend on the seed.
var dseAxes = []dse.Axis{
	{Param: "rob", Values: []string{"48", "64", "80", "96"}},
	{Param: "int-phys", Values: []string{"72", "80", "96"}},
	{Param: "lsq", Values: []string{"8", "16", "24"}},
	{Param: "int-iq", Values: []string{"16", "20", "24"}},
	{Param: "mem-iq", Values: []string{"8", "12", "16"}},
	{Param: "dcache-kib", Values: []string{"8", "16", "32"}},
	{Param: "dcache-ways", Values: []string{"2", "4", "8"}},
	{Param: "l2-kib", Values: []string{"512", "1024", "2048"}},
	{Param: "predictor", Values: []string{"tage", "gshare"}},
	{Param: "btb", Values: []string{"128", "256", "512"}},
	{Param: "fetch-buffer", Values: []string{"8", "16", "24"}},
}

// drawDesignPoints draws n distinct, Validate-passing design points around
// MediumBOOM, each overriding two parameters. Overrides are dealt from a
// seed-shuffled deck that holds every (parameter, value) pair once per
// round, so every seed's campaign sets each value about equally often:
// the seed draws which values combine, while the campaign's host cost,
// which values such as a larger ROB raise, barely depends on it.
func drawDesignPoints(seed int64, n int) ([]boom.Config, error) {
	rng := rand.New(rand.NewSource(seed))
	shuffle := func(d []dse.Setting) { rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] }) }
	seen := map[string]bool{}
	var deck []dse.Setting
	var out []boom.Config
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("dse: could not draw %d valid design points", n)
		}
		if len(deck) < 2 {
			for _, a := range dseAxes {
				for _, v := range a.Values {
					deck = append(deck, dse.Setting{Param: a.Param, Value: v})
				}
			}
			shuffle(deck)
		}
		over := deck[len(deck)-2:]
		cfgs, err := dse.Expand(dse.Spec{Base: "MediumBOOM", Overrides: over})
		if err != nil || seen[cfgs[0].Name] {
			// One parameter twice, an invalid corner or a repeat: the
			// pair stays in the deck and another pair is tried.
			shuffle(deck)
			continue
		}
		deck = deck[:len(deck)-2]
		seen[cfgs[0].Name] = true
		out = append(out, cfgs[0])
	}
	return out, nil
}

// dseReport reduces a finished sweep to the canonical frontier report, the
// way cmd/dse does from the served result rows.
func dseReport(id string, scale workloads.Scale, sw *core.Sweep) ([]byte, *serve.SweepResult, error) {
	raw, err := serve.EncodeSweep(id, scale, sw)
	if err != nil {
		return nil, nil, err
	}
	var res serve.SweepResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, nil, err
	}
	cells := make([]dse.Cell, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells = append(cells, dse.Cell{Workload: row.Workload, Config: row.Config,
			IPC: row.IPC, PowerMW: row.PowerMW, PerfPerWatt: row.PerfPerWatt})
	}
	enc, err := dse.EncodeReport(&dse.Report{Campaign: id, DesignPoints: len(res.Configs), Workloads: dse.Frontiers(cells)})
	return enc, &res, err
}

// fillProfiles runs steps 1–3 for every workload into dir, nproc at a time.
func fillProfiles(e *runEnv, names []string, dir string) error {
	runner := core.New(core.FlowConfigFor(e.scale), core.WithScale(e.scale), core.WithCache(dir), core.WithParallelism(e.nproc))
	errs := make([]error, len(names))
	sem := make(chan struct{}, e.nproc)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() { <-sem; wg.Done() }()
			w, err := workloads.Build(name, e.scale)
			if err == nil {
				_, err = runner.Profile(e.ctx, w)
			}
			errs[i] = err
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dseMeasure measures 96 cells whose profiles are already cached: almost
// all host time is checkpoint restore, boom.New, warm-up, measure and
// power.
func dseMeasure(e *runEnv) (*outcome, error) {
	o := newOutcome()
	t0 := time.Now()
	points, err := drawDesignPoints(e.seed, e.dsePoints)
	if err != nil {
		return nil, err
	}
	expandMS := since(t0) * 1e3
	camp := core.Campaign{Workloads: dseWorkloads, Configs: points, Scale: e.scale}

	var base string
	for i := 0; i < dseSetups; i++ {
		t0 := time.Now()
		if err := e.prepare(o, dseWorkloads, e.scale); err != nil {
			return nil, err
		}
		if base, err = e.freshDir("dse-profiles"); err != nil {
			return nil, err
		}
		if err := fillProfiles(e, dseWorkloads, base); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, since(t0))
	}

	deadline := time.Now().Add(e.seconds)
	var reg *metrics.Registry
	var last *core.Sweep
	var lastWall, frontierMS float64
	for len(o.campaigns) == 0 || time.Now().Before(deadline) {
		last = nil // let the previous sweep's profiles be collected
		// Each campaign starts from the profile artifacts alone, so all its
		// cells are measure misses.
		dir, err := e.freshDir("dse")
		if err == nil {
			err = copyDir(base, dir)
		}
		if err != nil {
			return nil, err
		}
		opts := []core.Option{core.WithScale(e.scale), core.WithCache(dir), core.WithParallelism(e.nproc)}
		if e.trace {
			reg = metrics.NewRegistry()
			opts = append(opts, core.WithMetrics(reg))
		}
		runner := core.New(core.FlowConfigFor(e.scale), opts...)
		id := runner.CampaignID(camp)
		mem := startWindow()
		t0 := time.Now()
		sw, serr := runner.Sweep(e.ctx, camp)
		var enc []byte
		var res *serve.SweepResult
		if serr == nil {
			t1 := time.Now()
			enc, res, serr = dseReport(id, e.scale, sw)
			frontierMS = since(t1) * 1e3
		}
		el := since(t0)
		o.memWindow(mem)
		o.campaigns = append(o.campaigns, el)
		o.timedWall += el
		o.attempted += camp.Cells()
		if serr == nil && len(res.Failed) > 0 {
			serr = fmt.Errorf("cells failed: %v", res.Failed)
		}
		if serr == nil {
			serr = e.checkDSE(enc)
		}
		if serr != nil {
			o.failed += camp.Cells()
			o.problem("dse-measure: %v", serr)
			continue
		}
		for _, row := range res.Rows {
			o.cells++
			o.detailed += row.DetailedInsts
		}
		last, lastWall = sw, el
	}

	if e.trace && last != nil {
		artifactLayers(o.layers, reg)
		sweepLayers(o.layers, last, lastWall, e.nproc, false)
		o.layers["dse.expand_ms"] = expandMS
		o.layers["dse.frontier_ms"] = frontierMS
		n := min(4, len(points))
		err := e.traced(o, traceSample{scale: e.scale, workloads: dseWorkloads, configs: points[:n], cacheDir: base})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkDSE gates the frontier report: the recorded digest for the
// reference seed at default scale, otherwise identity with an earlier run
// of the same seed in this checkout.
func (e *runEnv) checkDSE(enc []byte) error {
	if e.scale == workloads.ScaleDefault && e.dsePoints == dsePoints && e.seed == e.ref.DSESeed {
		return digestGate("dse-measure report", enc, e.ref.DSEReport)
	}
	kind := "dse-" + e.scale.String() + "-" + strconv.Itoa(e.dsePoints)
	return seedDigests{dir: e.stateDir}.check(kind, e.seed, sha(enc))
}
