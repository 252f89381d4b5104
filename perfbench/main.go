// Command perfbench is the repository's benchmark of the SimPoint → power
// flow: end-to-end metrics over four workloads driven through the public
// APIs (core.Runner, serve.Server over loopback HTTP, fabric.Coordinator
// and fabric.Worker), and per-layer metrics from a separate traced run
// that recomposes the flow from each layer's public functions.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, with the end-to-end metrics under
// --trace 0 and the per-layer metrics under --trace 1. The lines before it
// report every metric by name and unit, the host and the seed. Every run
// checks its outputs against recorded digests (perfbench/reference.json
// and testdata/equivalence_golden.txt); a mismatch makes the run
// incorrect and counts as failed.
//
//	bash perfbench/run.sh --regen-reference
//
// re-records perfbench/reference.json from the current code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/workloads"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// endToEnd are the metrics a user of the flow sees, reported on every
// workload with tracing off.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"cells_per_s", "cells/s"},
	{"detailed_minst_per_s", "Minst/s"},
	{"alloc_mb_per_cell", "MB/cell"},
}

// perLayer are the traced run's metrics, named after this repository's
// modules. A workload that does not exercise a layer reports 0 for it.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"sim.func_insts", "count"},
		{"sim.ns_per_inst", "ns/inst"},
		{"bbv.observe_ns_per_inst", "ns/inst"},
		{"mav.observe_ns_per_inst", "ns/inst"},
		{"simpoint.select_ms", "ms"},
		{"simpoint.kmeans_iterations", "count"},
		{"simpoint.points", "count"},
		{"ckpt.replay_insts", "count"},
		{"ckpt.capture_ms", "ms"},
		{"ckpt.restore_us", "us"},
		{"ckpt.payload_bytes", "B"},
		{"boom.new_us", "us"},
		{"boom.allocs_per_point", "count"},
		{"boom.bytes_per_point", "B"},
		{"boom.warmup_ns_per_inst", "ns/inst"},
		{"boom.measure_ns_per_inst", "ns/inst"},
		{"boom.measure_ns_per_inst.MediumBOOM", "ns/inst"},
		{"boom.measure_ns_per_inst.LargeBOOM", "ns/inst"},
		{"boom.measure_ns_per_inst.MegaBOOM", "ns/inst"},
		{"boom.detailed_insts", "count"},
		{"power.estimate_ns", "ns"},
		{"core.profile_chain_s", "s"},
		{"core.measure_cell_s", "s"},
		{"core.busy_frac", "ratio"},
		{"core.critical_path_s", "s"},
		{"artifact.hits", "count"},
		{"artifact.misses", "count"},
		{"artifact.puts", "count"},
		{"artifact.bytes_written", "B"},
		{"serve.submit_ms", "ms"},
		{"serve.result_ms", "ms"},
		{"serve.result_bytes", "B"},
	}
	for _, ep := range rpcEndpoints {
		m = append(m, metricSpec{"fabric.rpc_count." + ep, "count"})
	}
	for _, ep := range rpcEndpoints {
		m = append(m, metricSpec{"fabric.rpc_ms." + ep, "ms"})
	}
	m = append(m,
		metricSpec{"dse.expand_ms", "ms"},
		metricSpec{"dse.frontier_ms", "ms"},
		metricSpec{"report.render_ms", "ms"},
	)
	for _, l := range []string{"sim", "bbv", "mav", "simpoint", "ckpt", "boom", "power", "core"} {
		m = append(m, metricSpec{l + ".self_s", "s"})
	}
	return append(m,
		metricSpec{"trace.traced_s", "s"},
		metricSpec{"trace.untraced_s", "s"},
		metricSpec{"trace.overhead_s", "s"},
		metricSpec{"trace.parity_cells", "count"},
	)
}()

// workloadFuncs maps each benchmark workload to the function that runs it.
var workloadFuncs = map[string]func(*runEnv) (*outcome, error){
	"sweep-cold":  sweepCold,
	"dse-measure": dseMeasure,
	"serve-warm":  serveWarm,
	"fabric-tiny": fabricTiny,
}

// defaultSeed is the seed the dse-measure reference digest is recorded for.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings; the smoke test shrinks scale
// and dsePoints.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	regen     bool
	scale     workloads.Scale
	dsePoints int
	buildDir  string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	o := options{scale: workloads.ScaleDefault, dsePoints: dsePoints, buildDir: ".bench_build"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "sweep-cold | dse-measure | serve-warm | fabric-tiny")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "draws the dse-measure design points and the serve-warm request mix")
	fs.IntVar(&o.seconds, "seconds", 10, "measure for this many seconds (at least one campaign)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: report the per-layer metrics")
	fs.BoolVar(&o.regen, "regen-reference", false, "re-record "+referencePath+" from the current code")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.regen {
		return o, nil
	}
	if workloadFuncs[o.workload] == nil {
		return o, fmt.Errorf("--workload must be one of sweep-cold, dse-measure, serve-warm, fabric-tiny (got %q)", o.workload)
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return o, fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := execute(opt, stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// execute runs one workload (or the reference regeneration) and prints
// the report, ending with the result JSON line.
func execute(opt options, stdout io.Writer) error {
	work := filepath.Join(opt.buildDir, "work", fmt.Sprintf("%d", os.Getpid()))
	defer os.RemoveAll(work)
	e := &runEnv{
		name:      opt.workload,
		ctx:       context.Background(),
		seed:      opt.seed,
		seconds:   time.Duration(opt.seconds) * time.Second,
		trace:     opt.trace == 1,
		nproc:     runtime.NumCPU(),
		scale:     opt.scale,
		dsePoints: opt.dsePoints,
		dir:       work,
		stateDir:  filepath.Join(opt.buildDir, "state"),
		golden:    equivalenceGolden,
	}
	if opt.regen {
		return regenReference(e, referencePath)
	}
	ref, err := loadReference(referencePath)
	if err != nil {
		return err
	}
	e.ref = ref

	o, err := workloadFuncs[opt.workload](e)
	if err != nil {
		return err
	}
	return emit(stdout, opt, e, o)
}

// traced runs the recomposed pass for a workload and writes its spans.
func (e *runEnv) traced(o *outcome, smp traceSample) error {
	tr := newTracer()
	if err := recompose(e.ctx, smp, tr, o.layers); err != nil {
		// A parity or checksum failure is a wrong output, not a crash.
		o.failed++
		o.problem("traced pass: %v", err)
	}
	dir := filepath.Join(filepath.Dir(e.stateDir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", e.name, e.seed)))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable report and the result line.
func emit(w io.Writer, opt options, e *runEnv, o *outcome) error {
	host := newHostRecord(opt.seed, opt.workload)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, opt.seconds, opt.trace)
	fmt.Fprintf(w, "host %s\n", hb)

	e2e := map[string]float64{
		"setup_s":    median(o.setup),
		"campaign_s": median(o.campaigns),
	}
	if o.cells > 0 {
		e2e["alloc_mb_per_cell"] = o.allocMB / float64(o.cells)
	}
	if o.timedWall > 0 {
		e2e["cells_per_s"] = float64(o.cells) / o.timedWall
		e2e["detailed_minst_per_s"] = float64(o.detailed) / 1e6 / o.timedWall
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "metric %-24s %14.6g %s\n", m.Name, e2e[m.Name], m.Unit)
	}
	fmt.Fprintf(w, "metric %-24s %s\n", "setup_s", summarize(o.setup).String("s"))
	fmt.Fprintf(w, "metric %-24s %s\n", "campaign_s", summarize(o.campaigns).String("s"))
	if len(o.campaigns) <= 20 {
		fmt.Fprintf(w, "samples campaign_s %.4g\n", o.campaigns)
	}
	// Peak RSS is reported but not gated: on fabric-tiny it depends on
	// whether both workers happen to hold a large profile at once, which
	// spreads it by about a fifth from run to run.
	fmt.Fprintf(w, "metric %-24s %14.6g MB  median over %d timed window(s)\n", "peak_rss_mb", median(o.rss), len(o.rss))
	failedFrac := 0.0
	if o.attempted > 0 {
		failedFrac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "metric %-24s %14.6g ratio (%d of %d)\n", "failed_frac", failedFrac, o.failed, o.attempted)
	for _, m := range o.info {
		fmt.Fprintf(w, "metric %-24s %14.6g %s  %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}

	out := map[string]jsonMetric{}
	if e.trace {
		for _, m := range perLayer {
			fmt.Fprintf(w, "layer %-40s %14.6g %s\n", m.Name, o.layers[m.Name], m.Unit)
			out[m.Name] = jsonMetric{o.layers[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			out[m.Name] = jsonMetric{e2e[m.Name], m.Unit}
		}
	}
	attempted := max(o.attempted, 1)
	failed := o.failed
	if len(o.problems) > 0 && failed == 0 {
		failed = 1
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, attempted, min(failed, attempted), out}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
