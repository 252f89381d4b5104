package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"repro/internal/boom"
	"repro/internal/ckpt"
	"repro/internal/workloads"
)

func profileOf(t *testing.T, name string) *Profile {
	t.Helper()
	w, err := workloads.Build(name, workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(DefaultFlowConfig()).Profile(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileStage(t *testing.T) {
	p := profileOf(t, "bitcount")
	if p.TotalInsts == 0 {
		t.Fatal("no instructions profiled")
	}
	wantIntervals := int(p.TotalInsts/uint64(p.Workload.IntervalSize)) + 1
	if len(p.Vectors) < wantIntervals-1 || len(p.Vectors) > wantIntervals {
		t.Errorf("got %d intervals for %d insts (interval %d)",
			len(p.Vectors), p.TotalInsts, p.Workload.IntervalSize)
	}
	if p.Selection.Coverage < 0.9 {
		t.Errorf("coverage %.2f below the paper's 90%% floor", p.Selection.Coverage)
	}
	if len(p.Checkpoints) != p.NumSimPoints() {
		t.Errorf("%d checkpoints for %d simpoints", len(p.Checkpoints), p.NumSimPoints())
	}
	// bitcount has five phases: the clustering must find several.
	if p.Selection.K < 3 {
		t.Errorf("bitcount k=%d; expected ≥3 for 5 method phases", p.Selection.K)
	}
	for i, k := range p.Checkpoints {
		if k == nil {
			t.Fatalf("checkpoint %d missing", i)
		}
		start := p.Selection.Selected[i].Interval
		wantInst := int64(start)*p.Workload.IntervalSize - p.WarmupInsts[i]
		if int64(k.InstRet) != wantInst {
			t.Errorf("checkpoint %d at inst %d, want %d", i, k.InstRet, wantInst)
		}
	}
}

func TestSimPointRunAggregates(t *testing.T) {
	p := profileOf(t, "stringsearch")
	cfg := boom.MediumBOOM()
	r, err := New(DefaultFlowConfig()).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC() <= 0.1 || r.IPC() > float64(cfg.DecodeWidth) {
		t.Errorf("weighted IPC %.2f out of range", r.IPC())
	}
	if r.TotalPowerMW() < 3 || r.TotalPowerMW() > 60 {
		t.Errorf("tile power %.1f mW implausible", r.TotalPowerMW())
	}
	if r.PerfPerWatt() <= 0 {
		t.Error("perf/W must be positive")
	}
	if r.NumPoints < 1 || r.DetailedInsts == 0 {
		t.Errorf("no simulation points measured: %d points, %d insts",
			r.NumPoints, r.DetailedInsts)
	}
	if len(r.Slots) != cfg.IntIssueSlots {
		t.Errorf("slot power length %d", len(r.Slots))
	}
}

// TestSpeedupAtExperimentScale checks the methodology's payoff: at
// experiment scale the SimPoint flow simulates a small fraction of the
// program on the detailed model (the paper reports 45× at its 1:300
// interval:program ratio).
func TestSpeedupAtExperimentScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment-scale inputs")
	}
	fc := FlowConfigFor(workloads.ScaleDefault)
	var full, detailed uint64
	for _, name := range []string{"sha", "matmult"} {
		w, err := workloads.Build(name, workloads.ScaleDefault)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(fc).Profile(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New(fc).Run(context.Background(), p, boom.LargeBOOM())
		if err != nil {
			t.Fatal(err)
		}
		full += r.TotalInsts
		detailed += r.DetailedInsts
	}
	speedup := float64(full) / float64(detailed)
	if speedup < 3 {
		t.Errorf("speedup %.1f× too small (%d of %d insts simulated)",
			speedup, detailed, full)
	} else {
		t.Logf("detailed-simulation reduction: %.1f×", speedup)
	}
}

// TestSimPointAccuracy validates the methodology: weighted-SimPoint IPC
// must track the full detailed-model IPC closely (the property that makes
// the 45× speedup usable).
func TestSimPointAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full detailed simulations")
	}
	for _, name := range []string{"bitcount", "sha", "basicmath", "fft"} {
		acc, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).
			Validate(context.Background(), name, boom.LargeBOOM())
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(acc.ErrorPct()); e > 20 {
			t.Errorf("%s: SimPoint IPC %.3f vs full %.3f (%.1f%% error)",
				name, acc.SimPointIPC, acc.FullIPC, e)
		} else {
			t.Logf("%s: SimPoint IPC %.3f vs full %.3f (%.1f%% error)",
				name, acc.SimPointIPC, acc.FullIPC, acc.ErrorPct())
		}
	}
}

func TestSweepAndSpeedup(t *testing.T) {
	names := []string{"sha", "tarfind", "qsort"}
	sw, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).
		Sweep(context.Background(), tcamp(names, []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfgName := range []string{"MediumBOOM", "MegaBOOM"} {
		for _, n := range names {
			if sw.Results[cfgName][n] == nil {
				t.Fatalf("missing result %s/%s", cfgName, n)
			}
		}
	}
	// Sha IPC must grow with core width; tarfind must be the slowest.
	med, mega := sw.Results["MediumBOOM"], sw.Results["MegaBOOM"]
	if mega["sha"].IPC() <= med["sha"].IPC() {
		t.Errorf("sha IPC: mega %.2f vs medium %.2f", mega["sha"].IPC(), med["sha"].IPC())
	}
	if tar := mega["tarfind"].IPC(); tar >= mega["sha"].IPC() {
		t.Errorf("tarfind IPC %.2f should trail sha %.2f", tar, mega["sha"].IPC())
	}
	// Medium perf/W should beat Mega on most of these workloads (Fig. 11).
	better := 0
	for _, n := range names {
		if med[n].PerfPerWatt() > mega[n].PerfPerWatt() {
			better++
		}
	}
	if better < 2 {
		t.Errorf("MediumBOOM should win perf/W on most workloads; won %d of %d", better, len(names))
	}
}

func TestFlowDeterminism(t *testing.T) {
	a := profileOf(t, "patricia")
	b := profileOf(t, "patricia")
	if a.TotalInsts != b.TotalInsts || a.NumSimPoints() != b.NumSimPoints() ||
		a.Selection.K != b.Selection.K {
		t.Fatal("profiling is not deterministic")
	}
	cfg := boom.LargeBOOM()
	ra, err := New(DefaultFlowConfig()).Run(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := New(DefaultFlowConfig()).Run(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.Cycles != rb.Stats.Cycles || ra.IPC() != rb.IPC() {
		t.Fatal("simpoint measurement is not deterministic")
	}
}

// TestPowerAccuracySimPointVsFull: the weighted SimPoint power must track
// the full-run power (the flow's other headline quantity besides IPC).
func TestPowerAccuracySimPointVsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full detailed simulations")
	}
	fc := DefaultFlowConfig()
	cfg := boom.MediumBOOM()
	for _, name := range []string{"bitcount", "sha"} {
		w, err := workloads.Build(name, workloads.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(fc).Profile(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := New(fc).Run(context.Background(), p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w2, _ := workloads.Build(name, workloads.ScaleTiny)
		full, err := New(fc).RunFull(context.Background(), w2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(sp.TotalPowerMW()-full.TotalPowerMW()) / full.TotalPowerMW()
		if rel > 0.12 {
			t.Errorf("%s: simpoint power %.2f vs full %.2f (%.0f%% error)",
				name, sp.TotalPowerMW(), full.TotalPowerMW(), 100*rel)
		}
	}
}

// TestCheckpointFilesDriveTheFlow: checkpoints survive serialization and
// still produce identical measurements (the on-disk artifact path of
// cmd/boomflow -mode profile -out).
func TestCheckpointFilesDriveTheFlow(t *testing.T) {
	fc := DefaultFlowConfig()
	p := profileOf(t, "stringsearch")
	cfg := boom.MediumBOOM()
	direct, err := New(fc).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize + deserialize every checkpoint, then re-run.
	for i, k := range p.Checkpoints {
		var buf bytes.Buffer
		if err := k.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		k2, err := ckpt.Deserialize(&buf)
		if err != nil {
			t.Fatal(err)
		}
		p.Checkpoints[i] = k2
	}
	reloaded, err := New(fc).Run(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Stats.Cycles != reloaded.Stats.Cycles || direct.IPC() != reloaded.IPC() {
		t.Fatalf("serialized checkpoints changed the measurement: %d vs %d cycles",
			direct.Stats.Cycles, reloaded.Stats.Cycles)
	}
}

// TestPointsBracketAggregate: per-point phase results must be present and
// their weights must sum to the coverage.
func TestPointsBracketAggregate(t *testing.T) {
	p := profileOf(t, "bitcount")
	r, err := New(DefaultFlowConfig()).Run(context.Background(), p, boom.LargeBOOM())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != r.NumPoints {
		t.Fatalf("points %d, expected %d", len(r.Points), r.NumPoints)
	}
	var wsum float64
	for _, pt := range r.Points {
		wsum += pt.Weight
		if pt.IPC <= 0 || pt.PowerMW <= 0 {
			t.Errorf("degenerate point %+v", pt)
		}
	}
	if math.Abs(wsum-r.Coverage) > 1e-9 {
		t.Errorf("point weights sum %.4f != coverage %.4f", wsum, r.Coverage)
	}
}

// TestParallelSweepDeterminism: the concurrent sweep must be bit-identical
// to itself run-to-run (each measurement is an isolated core+CPU pair).
func TestParallelSweepDeterminism(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()}
	a, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).Sweep(context.Background(), tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).Sweep(context.Background(), tcamp(names, cfgs))
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		for _, n := range names {
			ra, rb := a.Results[cfg.Name][n], b.Results[cfg.Name][n]
			if ra.Stats.Cycles != rb.Stats.Cycles || ra.IPC() != rb.IPC() ||
				ra.TotalPowerMW() != rb.TotalPowerMW() {
				t.Errorf("%s/%s differs across parallel sweeps", cfg.Name, n)
			}
		}
	}
}

func TestFlowErrorPaths(t *testing.T) {
	if _, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).Validate(context.Background(), "nope", boom.MediumBOOM()); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := New(DefaultFlowConfig(), WithScale(workloads.ScaleTiny)).
		Sweep(context.Background(), tcamp([]string{"nope"}, []boom.Config{boom.MediumBOOM()})); err == nil {
		t.Error("sweep with unknown workload must error")
	}
	// Invalid simpoint config surfaces from profiling.
	fc := DefaultFlowConfig()
	fc.SimPoint.Dims = 0
	w, err := workloads.Build("sha", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(fc).Profile(context.Background(), w); err == nil {
		t.Error("invalid simpoint config must error")
	}
}

func TestRunFullMatchesDirectModel(t *testing.T) {
	// RunFull must agree with driving the model by hand.
	fc := DefaultFlowConfig()
	w, err := workloads.Build("bitcount", workloads.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(fc).RunFull(context.Background(), w, boom.MediumBOOM())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := workloads.Build("bitcount", workloads.ScaleTiny)
	cpu, _ := w2.NewCPU()
	core, err := boom.New(boom.MediumBOOM())
	if err != nil {
		t.Fatal(err)
	}
	ts := &traceSource{cpu: cpu}
	if _, err := core.Run(ts.next, ^uint64(0)); err != nil {
		t.Fatal(err)
	}
	if ts.err != nil {
		t.Fatal(ts.err)
	}
	if full.Stats.Cycles != core.Stats().Cycles || full.Stats.Insts != core.Stats().Insts {
		t.Fatalf("RunFull %d/%d vs direct %d/%d",
			full.Stats.Insts, full.Stats.Cycles, core.Stats().Insts, core.Stats().Cycles)
	}
}
