package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/bbv"
	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mav"
	"repro/internal/power"
	"repro/internal/rv64"
	"repro/internal/sim"
	"repro/internal/simpoint"
	"repro/internal/workloads"
)

// traceSample is the set of cells the traced pass recomposes. With
// cacheDir set, profiles are read through core.Runner.Profile from that
// (warm) cache, as the workload's timed phase does; otherwise the profile,
// select and checkpoint steps are recomposed too. With readBack set, the
// measurements are cache reads as well (core.Runner.Run on a hit), checked
// against that sweep's results.
type traceSample struct {
	scale     workloads.Scale
	workloads []string
	configs   []boom.Config
	cacheDir  string
	readBack  *core.Sweep
}

// feed adapts a functional CPU into the timing model's instruction source,
// the same way core's measure stage does.
type feed struct {
	cpu *sim.CPU
	err error
}

func (f *feed) next(r *sim.Retired) bool {
	if f.err != nil || f.cpu.Halted {
		return false
	}
	if err := f.cpu.Step(r); err != nil {
		f.err = err
		return false
	}
	return true
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// cellOut is what parity compares: per-point IPC and detailed instructions.
type cellOut struct {
	ipcs     []float64
	detailed uint64
}

// recompose runs the sample once, serially, from each layer's public
// functions with a span around every call, then once more through
// core.Runner (no tracing, one worker) for parity and the tracing
// overhead. It fills layers with the per-layer metrics.
//
// Host time inside the functional profile pass is split between sim, bbv
// and mav by running the same instruction stream three ways: a bare
// CPU.Run pass, a RunTrace pass with the BBV observer (the flow's own
// pass), and one with BBV and MAV observers. The bare and MAV passes, and
// serializing the checkpoints to size them, are measuring aids the Runner
// does not do, so they are left out of the traced wall time.
func recompose(ctx context.Context, smp traceSample, tr *tracer, layers map[string]float64) error {
	fc := core.FlowConfigFor(smp.scale)
	var cacheRunner *core.Runner
	if smp.cacheDir != "" {
		cacheRunner = core.New(fc, core.WithScale(smp.scale), core.WithCache(smp.cacheDir), core.WithParallelism(1))
	}

	start := time.Now()
	got := map[string]*cellOut{}
	for _, name := range smp.workloads {
		w, err := workloads.Build(name, smp.scale)
		if err != nil {
			return err
		}
		root := tr.begin(0, "core.workload")
		var p *core.Profile
		if cacheRunner != nil {
			id := tr.begin(root, "core.profile_read")
			p, err = cacheRunner.Profile(ctx, w)
			tr.end(id)
		} else {
			p, err = profileTraced(tr, root, w, fc)
		}
		if err != nil {
			return err
		}
		// The raw serialized checkpoint set; the cache entry holds these
		// bytes flate-compressed.
		id := tr.begin(root, "ckpt.serialize")
		var n byteCounter
		err = ckpt.SerializeAll(&n, p.Checkpoints)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.add("ckpt.payload_bytes", float64(n))
		tr.add("simpoint.points", float64(p.NumSimPoints()))

		for _, cfg := range smp.configs {
			var out *cellOut
			if smp.readBack != nil {
				id := tr.begin(root, "core.measure_read")
				var res *core.Result
				if res, err = cacheRunner.Run(ctx, p, cfg); err == nil {
					out = resultCell(res)
				}
				tr.end(id)
			} else {
				out, err = measureTraced(tr, root, p, cfg, fc)
			}
			if err != nil {
				return fmt.Errorf("traced %s/%s: %w", cfg.Name, name, err)
			}
			got[cfg.Name+"/"+name] = out
		}
		tr.end(root)
	}
	traced := time.Since(start).Nanoseconds() - tr.total("sim.run") - tr.total("mav.profile") - tr.total("ckpt.serialize")

	untraced, err := untracedPass(ctx, smp, fc, got)
	if err != nil {
		return err
	}
	fillLayers(tr, layers)
	layers["trace.traced_s"] = float64(traced) / 1e9
	layers["trace.untraced_s"] = float64(untraced) / 1e9
	layers["trace.overhead_s"] = float64(traced-untraced) / 1e9
	layers["trace.parity_cells"] = float64(len(got))
	return nil
}

// profileTraced recomposes steps 1–3 under the legacy sampling spec and
// returns them as the core.Profile the Runner would.
func profileTraced(tr *tracer, root int, w *workloads.Workload, fc core.FlowConfig) (*core.Profile, error) {
	interval := w.IntervalSize

	// Bare functional pass: the sim layer's own cost per instruction, and
	// the check that the workload halts with its reference checksum.
	id := tr.begin(root, "sim.new")
	cpu, err := w.NewCPU()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(root, "sim.run")
	bare, err := runToHalt(cpu, interval, nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if got := cpu.X[rv64.RegA0]; got != w.Checksum {
		return nil, fmt.Errorf("%s halted with a0=%#x, want checksum %#x", w.Name, got, w.Checksum)
	}
	tr.add("sim.bare_insts", float64(bare))

	// The flow's profile pass: functional execution with the BBV observer.
	if cpu, err = w.NewCPU(); err != nil {
		return nil, err
	}
	prof := bbv.NewProfiler(interval)
	id = tr.begin(root, "bbv.profile")
	n, err := runToHalt(cpu, interval, prof.Observe)
	prof.Finish()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if n != bare {
		return nil, fmt.Errorf("%s: profile pass ran %d instructions, bare pass %d", w.Name, n, bare)
	}
	tr.add("sim.func_insts", float64(n))
	vectors := prof.Vectors()

	// BBV ⊕ MAV pass over the same stream: MAV's extra cost per instruction.
	if cpu, err = w.NewCPU(); err != nil {
		return nil, err
	}
	prof2, mprof := bbv.NewProfiler(interval), mav.NewProfiler(interval)
	id = tr.begin(root, "mav.profile")
	_, err = runToHalt(cpu, interval, func(r *sim.Retired) {
		prof2.Observe(r)
		mprof.Observe(r)
	})
	prof2.Finish()
	mprof.Finish()
	tr.end(id)
	if err != nil {
		return nil, err
	}

	id = tr.begin(root, "simpoint.choose")
	sel, err := simpoint.Choose(vectors, fc.SimPoint)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.add("simpoint.kmeans_iterations", float64(sel.Stats.Iterations))

	// Checkpoints: one functional replay over the sorted capture points,
	// each taken the flow's warm-up length before its simulation point.
	type capture struct {
		at, interval int64
		idx          int
	}
	caps := make([]capture, len(sel.Selected))
	for i, pt := range sel.Selected {
		at := int64(pt.Interval)*interval - fc.WarmupInsts
		if at < 0 {
			at = 0
		}
		caps[i] = capture{at: at, interval: int64(pt.Interval), idx: i}
	}
	sort.Slice(caps, func(i, j int) bool { return caps[i].at < caps[j].at })
	if cpu, err = w.NewCPU(); err != nil {
		return nil, err
	}
	cks := make([]*ckpt.Checkpoint, len(caps))
	warmups := make([]int64, len(caps))
	var executed int64
	for _, c := range caps {
		id = tr.begin(root, "sim.replay")
		for executed < c.at {
			step := c.at - executed
			if step > interval {
				step = interval
			}
			if _, err := cpu.Run(step); err != nil {
				return nil, err
			}
			executed += step
		}
		tr.end(id)
		id = tr.begin(root, "ckpt.capture")
		k := ckpt.Capture(cpu)
		tr.end(id)
		k.Interval = c.interval
		k.Weight = sel.Selected[c.idx].Weight
		cks[c.idx] = k
		warmups[c.idx] = c.interval*interval - c.at
	}
	tr.add("ckpt.replay_insts", float64(executed))
	tr.add("sim.func_insts", float64(executed))
	return &core.Profile{Workload: w, Interval: interval, TotalInsts: uint64(n), Selection: sel, Checkpoints: cks, WarmupInsts: warmups}, nil
}

// runToHalt executes until the program halts, in interval-sized chunks as
// the flow does, with an optional per-instruction observer.
func runToHalt(cpu *sim.CPU, interval int64, observe func(*sim.Retired)) (int64, error) {
	var n int64
	for !cpu.Halted {
		var ran int64
		var err error
		if observe == nil {
			ran, err = cpu.Run(interval)
		} else {
			ran, err = cpu.RunTrace(interval, observe)
		}
		n += ran
		if err != nil {
			return n, err
		}
		if ran == 0 && !cpu.Halted {
			return n, fmt.Errorf("no forward progress")
		}
	}
	return n, nil
}

// measureTraced recomposes steps 4–5 for one cell, point by point.
func measureTraced(tr *tracer, root int, p *core.Profile, cfg boom.Config, fc core.FlowConfig) (*cellOut, error) {
	cell := tr.begin(root, "core.cell")
	defer tr.end(cell)
	prog, err := p.Workload.Program()
	if err != nil {
		return nil, err
	}
	est := power.NewEstimator(cfg, fc.Lib)
	var scratch power.Report
	out := &cellOut{}
	for i, k := range p.Checkpoints {
		id := tr.begin(cell, "ckpt.restore")
		cpu := sim.New()
		cpu.Load(prog)
		k.Restore(cpu)
		tr.end(id)

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id = tr.begin(cell, "boom.new")
		bc, err := boom.New(cfg)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		f := &feed{cpu: cpu}
		warm := uint64(p.WarmupInsts[i])
		id = tr.begin(cell, "boom.warmup")
		if warm > 0 {
			if _, err := bc.Run(f.next, warm); err != nil {
				return nil, err
			}
		}
		bc.ResetStats()
		tr.end(id)
		id = tr.begin(cell, "boom.measure")
		ran, err := bc.Run(f.next, uint64(p.Interval))
		ns := tr.end(id)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		if f.err != nil {
			return nil, f.err
		}
		st := bc.Stats()
		id = tr.begin(cell, "power.estimate")
		err = est.EstimateInto(&scratch, st)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		tr.add("boom.warmup_insts", float64(warm))
		tr.add("boom.measure_insts", float64(ran))
		tr.add("boom.measure_ns."+cfg.Name, float64(ns))
		tr.add("boom.measure_insts."+cfg.Name, float64(ran))
		tr.add("boom.allocs", float64(m1.Mallocs-m0.Mallocs))
		tr.add("boom.bytes", float64(m1.TotalAlloc-m0.TotalAlloc))
		out.ipcs = append(out.ipcs, st.IPC())
		out.detailed += warm + ran
	}
	return out, nil
}

// untracedPass runs the same cells through core.Runner with one worker and
// no tracing, checks that every per-point IPC and the detailed instruction
// count equal the recomposed ones, and returns its wall time in ns.
func untracedPass(ctx context.Context, smp traceSample, fc core.FlowConfig, got map[string]*cellOut) (int64, error) {
	runner := core.New(fc, core.WithScale(smp.scale), core.WithParallelism(1))
	profRunner := runner
	if smp.cacheDir != "" {
		profRunner = core.New(fc, core.WithScale(smp.scale), core.WithCache(smp.cacheDir), core.WithParallelism(1))
	}
	start := time.Now()
	results := map[string]*core.Result{}
	for _, name := range smp.workloads {
		w, err := workloads.Build(name, smp.scale)
		if err != nil {
			return 0, err
		}
		p, err := profRunner.Profile(ctx, w)
		if err != nil {
			return 0, err
		}
		for _, cfg := range smp.configs {
			// runner has no cache, so the measurement runs, unless the
			// sample reads measurements back from the cache.
			run := runner
			if smp.readBack != nil {
				run = profRunner
			}
			res, err := run.Run(ctx, p, cfg)
			if err != nil {
				return 0, err
			}
			results[cfg.Name+"/"+name] = res
		}
	}
	wall := time.Since(start).Nanoseconds()
	for key, res := range results {
		if err := parity(key, got[key], res); err != nil {
			return 0, err
		}
	}
	if smp.readBack != nil {
		for cfg, perCfg := range smp.readBack.Results {
			for name, res := range perCfg {
				if err := parity(cfg+"/"+name, got[cfg+"/"+name], res); err != nil {
					return 0, err
				}
			}
		}
	}
	return wall, nil
}

// resultCell is the parity view of a core.Runner result.
func resultCell(res *core.Result) *cellOut {
	out := &cellOut{detailed: res.DetailedInsts}
	for _, pt := range res.Points {
		out.ipcs = append(out.ipcs, pt.IPC)
	}
	return out
}

// parity fails unless the recomposed cell equals core.Runner's result.
func parity(key string, got *cellOut, res *core.Result) error {
	if got == nil {
		return fmt.Errorf("parity %s: no recomposed cell", key)
	}
	if got.detailed != res.DetailedInsts {
		return fmt.Errorf("parity %s: recomposed %d detailed instructions, Runner.Run %d", key, got.detailed, res.DetailedInsts)
	}
	if len(got.ipcs) != len(res.Points) {
		return fmt.Errorf("parity %s: recomposed %d points, Runner.Run %d", key, len(got.ipcs), len(res.Points))
	}
	for i, pt := range res.Points {
		if got.ipcs[i] != pt.IPC {
			return fmt.Errorf("parity %s: point %d IPC %v, Runner.Run %v", key, i, got.ipcs[i], pt.IPC)
		}
	}
	return nil
}

// fillLayers turns the pass's spans and counters into per-layer metrics.
func fillLayers(tr *tracer, layers map[string]float64) {
	c := tr.counts
	per := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / n
	}
	mean := func(name string) float64 { return per(tr.total(name), float64(tr.count(name))) }

	bareNS, bbvNS, mavNS := tr.total("sim.run"), tr.total("bbv.profile"), tr.total("mav.profile")
	layers["sim.func_insts"] = c["sim.func_insts"]
	layers["sim.ns_per_inst"] = per(bareNS, c["sim.bare_insts"])
	layers["bbv.observe_ns_per_inst"] = per(bbvNS-bareNS, c["sim.bare_insts"])
	layers["mav.observe_ns_per_inst"] = per(mavNS-bbvNS, c["sim.bare_insts"])
	layers["simpoint.select_ms"] = float64(tr.total("simpoint.choose")) / 1e6
	layers["simpoint.kmeans_iterations"] = c["simpoint.kmeans_iterations"]
	layers["simpoint.points"] = c["simpoint.points"]
	layers["ckpt.replay_insts"] = c["ckpt.replay_insts"]
	layers["ckpt.capture_ms"] = float64(tr.total("ckpt.capture")) / 1e6
	layers["ckpt.restore_us"] = mean("ckpt.restore") / 1e3
	layers["ckpt.payload_bytes"] = c["ckpt.payload_bytes"]
	points := float64(tr.count("boom.new"))
	layers["boom.new_us"] = mean("boom.new") / 1e3
	layers["boom.allocs_per_point"] = per(int64(c["boom.allocs"]), points)
	layers["boom.bytes_per_point"] = per(int64(c["boom.bytes"]), points)
	layers["boom.warmup_ns_per_inst"] = per(tr.total("boom.warmup"), c["boom.warmup_insts"])
	layers["boom.measure_ns_per_inst"] = per(tr.total("boom.measure"), c["boom.measure_insts"])
	for _, cfg := range boom.Configs() {
		layers["boom.measure_ns_per_inst."+cfg.Name] = per(int64(c["boom.measure_ns."+cfg.Name]), c["boom.measure_insts."+cfg.Name])
	}
	layers["boom.detailed_insts"] = c["boom.warmup_insts"] + c["boom.measure_insts"]
	layers["power.estimate_ns"] = mean("power.estimate")

	// Self time per layer. The profile pass interleaves sim and observer
	// work per instruction, so bbv and mav are charged the difference
	// between passes over the same stream and sim the bare pass.
	self := tr.selfNS()
	self["bbv"] = bbvNS - bareNS
	self["mav"] = mavNS - bbvNS
	for _, l := range []string{"sim", "bbv", "mav", "simpoint", "ckpt", "boom", "power", "core"} {
		layers[l+".self_s"] = float64(self[l]) / 1e9
	}
}
