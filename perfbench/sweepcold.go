package main

import (
	"fmt"
	"time"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// sweepColdSetups is how many times sweep-cold sets up per run (the
// median is reported).
const sweepColdSetups = 3

// sweepDigest is the reference digest of the 11x3 legacy-spec sweep at a
// scale: the repository's golden at tiny scale, the recorded reference
// at default scale.
func (e *runEnv) sweepDigest() (string, error) {
	if e.scale == workloads.ScaleTiny {
		return goldenSweepJSON(e.golden)
	}
	return e.ref.SweepCold, nil
}

// sweepCold is the paper flow: the 11 workloads x 3 configs, legacy
// sampling spec, Runner.Sweep at -j nproc into an empty cache, then every
// report table.
func sweepCold(e *runEnv) (*outcome, error) {
	o := newOutcome()
	names := workloads.Names()
	camp := core.NewCampaign(names, boom.Configs(), e.scale)
	want, err := e.sweepDigest()
	if err != nil {
		return nil, err
	}

	for i := 0; i < sweepColdSetups; i++ {
		t0 := time.Now()
		if err := e.prepare(o, names, e.scale); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, since(t0))
	}

	deadline := time.Now().Add(e.seconds)
	var last *core.Sweep
	var reg *metrics.Registry
	var lastWall, renderS float64
	for len(o.campaigns) == 0 || time.Now().Before(deadline) {
		last = nil // let the previous sweep's profiles be collected
		dir, err := e.freshDir("sweep-cold")
		if err != nil {
			return nil, err
		}
		opts := []core.Option{core.WithScale(e.scale), core.WithCache(dir), core.WithParallelism(e.nproc)}
		if e.trace {
			reg = metrics.NewRegistry()
			opts = append(opts, core.WithMetrics(reg))
		}
		runner := core.New(core.FlowConfigFor(e.scale), opts...)
		mem := startWindow()
		t0 := time.Now()
		sw, serr := runner.Sweep(e.ctx, camp)
		if serr == nil {
			t1 := time.Now()
			renderTables(sw)
			renderS = since(t1)
		}
		el := since(t0)
		o.memWindow(mem)
		o.campaigns = append(o.campaigns, el)
		o.timedWall += el
		o.attempted += camp.Cells()
		if serr != nil {
			o.failed += camp.Cells()
			o.problem("sweep: %v", serr)
			continue
		}
		if err := sweepGate("sweep-cold", e.scale, sw, want); err != nil {
			o.failed += camp.Cells()
			o.problem("%v", err)
			continue
		}
		for _, perCfg := range sw.Results {
			for _, r := range perCfg {
				o.cells++
				o.detailed += r.DetailedInsts
			}
		}
		last, lastWall = sw, el
	}
	if last == nil {
		return o, nil
	}

	o.addInfo("sampling_speedup", last.SpeedupOf().Speedup(), "x", "simulated; program / detailed instructions")
	if e.scale == workloads.ScaleDefault {
		errs, err := cpiErrors(e.ref.Accuracy, last.Results[e.ref.Accuracy.Config])
		if err != nil {
			o.failed += len(names)
			o.problem("%v", err)
		} else {
			o.addInfo("cpi_err_mean_pct", sum(errs)/float64(len(errs)), "%", "simulated; sampled vs full-detail MediumBOOM CPI")
			o.addInfo("cpi_err_max_pct", maxOf(errs), "%", "simulated")
		}
	} else {
		o.addInfo("cpi_err_mean_pct", 0, "%", fmt.Sprintf("not computed: the accuracy reference is for %s scale", e.ref.Accuracy.Scale))
	}

	if e.trace {
		artifactLayers(o.layers, reg)
		sweepLayers(o.layers, last, lastWall-renderS, e.nproc, true)
		o.layers["report.render_ms"] = renderS * 1e3
		err := e.traced(o, traceSample{scale: e.scale, workloads: names, configs: boom.Configs()})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}
