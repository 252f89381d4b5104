package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/rv64"
	"repro/internal/workloads"
)

// runEnv is what one invocation hands a workload.
type runEnv struct {
	name    string
	ctx     context.Context
	seed    int64
	seconds time.Duration
	trace   bool
	nproc   int

	// scale is the scale of sweep-cold, dse-measure and serve-warm
	// (default; the smoke test shrinks it to tiny). fabric-tiny is always
	// tiny.
	scale     workloads.Scale
	dsePoints int

	dir      string // scratch for this run, removed at exit
	stateDir string // kept across runs in one checkout (seed digests)
	ref      *reference
	golden   string // path of the equivalence golden file
}

// outcome is what a workload measured.
type outcome struct {
	attempted int
	failed    int
	problems  []string

	setup     []float64 // s, one per setup repetition
	campaigns []float64 // s, one per campaign (per request on serve-warm)
	cells     int       // cells delivered in the timed phase
	detailed  uint64    // Σ Result.DetailedInsts delivered in the timed phase
	timedWall float64   // s, wall time the cells were delivered in
	rss       []float64 // MB, peak resident set size per timed window
	allocMB   float64   // MB allocated in the timed windows

	info   []infoMetric       // printed metrics that apply to this workload only
	layers map[string]float64 // per-layer metrics (traced runs)
}

// infoMetric is a metric printed with the run's report but not part of
// the end-to-end set, because it applies to one workload or is a
// simulated quantity fixed by the digest gates.
type infoMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func newOutcome() *outcome { return &outcome{layers: map[string]float64{}} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) addInfo(name string, v float64, unit, note string) {
	o.info = append(o.info, infoMetric{name, v, unit, note})
}

// memWindow records a finished timed window's memory figures.
func (o *outcome) memWindow(w *memWindow) {
	peak, alloc := w.Stop()
	o.rss = append(o.rss, peak)
	o.allocMB += alloc
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// freshDir makes a new empty directory under the run's scratch dir.
func (e *runEnv) freshDir(prefix string) (string, error) {
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.dir, prefix+"-")
}

// prepare is the part of setup every workload shares: build and assemble
// the named workloads, and check that each halts with its reference
// checksum (a mismatch is recorded as a failed output).
func (e *runEnv) prepare(o *outcome, names []string, scale workloads.Scale) error {
	ws := make([]*workloads.Workload, len(names))
	for i, n := range names {
		w, err := workloads.Build(n, scale)
		if err != nil {
			return err
		}
		if _, err := w.Program(); err != nil {
			return err
		}
		ws[i] = w
	}
	if err := checkHalts(ws, e.nproc); err != nil {
		o.failed++
		o.problem("setup: %v", err)
	}
	return nil
}

// checkHalts runs every workload functionally to its exit, nproc at a
// time, and fails unless each halts with a0 equal to its Go-computed
// checksum.
func checkHalts(ws []*workloads.Workload, nproc int) error {
	errs := make([]error, len(ws))
	sem := make(chan struct{}, nproc)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, w *workloads.Workload) {
			defer func() { <-sem; wg.Done() }()
			cpu, err := w.NewCPU()
			if err == nil {
				_, err = runToHalt(cpu, w.IntervalSize, nil)
			}
			if err == nil && cpu.X[rv64.RegA0] != w.Checksum {
				err = fmt.Errorf("a0=%#x, want checksum %#x", cpu.X[rv64.RegA0], w.Checksum)
			}
			if err != nil {
				errs[i] = fmt.Errorf("workload %s: %w", w.Name, err)
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// renderTables renders every report table the tables command prints.
func renderTables(sw *core.Sweep) int {
	ts := []*report.Table{
		report.TableII(sw),
		report.FigComponentPower(sw, "MediumBOOM"),
		report.FigComponentPower(sw, "LargeBOOM"),
		report.FigComponentPower(sw, "MegaBOOM"),
		report.FigSlotPower(sw, "MegaBOOM", "dijkstra", "sha"),
		report.FigContribution(sw),
		report.FigIPC(sw),
		report.FigPerfPerWatt(sw),
		report.SpeedupTable(sw),
		report.PhaseProfile(sw, "MegaBOOM", "sha"),
		report.PowerSources(sw),
	}
	n := len(report.Takeaways(sw))
	for _, t := range ts {
		n += len(t.Render())
	}
	return n
}

// sweepLayers derives the core layer's scheduling metrics from a finished
// sweep's own accounting (Profile.WallNS, Result.MeasureWallNS), which
// core records per task without overlapping spans. profilesComputed is
// false when every profile was a cache hit, whose WallNS is the original
// cost rather than work done in this sweep.
func sweepLayers(layers map[string]float64, sw *core.Sweep, wall float64, j int, profilesComputed bool) {
	var busy, chain, crit float64
	var cellsS []float64
	for name, p := range sw.Profiles {
		pc := 0.0
		if profilesComputed {
			pc = float64(p.WallNS) / 1e9
		}
		longest := 0.0
		for _, perCfg := range sw.Results {
			if r := perCfg[name]; r != nil {
				longest = max(longest, float64(r.MeasureWallNS)/1e9)
			}
		}
		busy += pc
		if pc > chain {
			chain = pc
		}
		crit = max(crit, pc+longest)
	}
	for _, perCfg := range sw.Results {
		for _, r := range perCfg {
			s := float64(r.MeasureWallNS) / 1e9
			busy += s
			cellsS = append(cellsS, s)
		}
	}
	layers["core.profile_chain_s"] = chain
	layers["core.measure_cell_s"] = median(cellsS)
	layers["core.critical_path_s"] = crit
	if wall > 0 {
		layers["core.busy_frac"] = busy / (wall * float64(j))
	}
}

// artifactLayers copies the artifact cache counters out of registries.
func artifactLayers(layers map[string]float64, regs ...*metrics.Registry) {
	for _, reg := range regs {
		layers["artifact.hits"] += float64(reg.Counter("artifact.hit").Value())
		layers["artifact.misses"] += float64(reg.Counter("artifact.miss").Value())
		layers["artifact.puts"] += float64(reg.Counter("artifact.put").Value())
		layers["artifact.bytes_written"] += float64(reg.Counter("artifact.put_bytes").Value())
	}
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
