package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The benchmark reads its reference files relative to the repository
// root, where it is run from.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	if got := summarize(seq(10)); got.TailOK || got.N != 10 || got.Median != 5.5 {
		t.Errorf("n=10: %+v, want no tail (only 9 samples beyond the max rank), median 5.5", got)
	}
	got := summarize(seq(11))
	if !got.TailOK || got.Tail != 1 || got.N != 11 {
		t.Errorf("n=11: %+v, want the minimum (exactly 10 samples beyond it)", got)
	}
	got = summarize(seq(100))
	if !got.TailOK || got.Tail != 90 || got.TailPct != 90 {
		t.Errorf("n=100: %+v, want p90 = 90", got)
	}
	beyond := 0
	for _, x := range seq(100) {
		if x > got.Tail {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Errorf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if s := got.String("ms"); !strings.Contains(s, "n=100") || !strings.Contains(s, "p90.0") {
		t.Errorf("rendering %q lacks the percentile or the sample count", s)
	}
}

// tinySweep runs a small real sweep for the gate tests.
func tinySweep(t *testing.T) *core.Sweep {
	t.Helper()
	r := core.New(core.FlowConfigFor(workloads.ScaleTiny), core.WithScale(workloads.ScaleTiny))
	camp := core.NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestDigestGateFiresOnTamperedBytes(t *testing.T) {
	sw := tinySweep(t)
	enc, err := serve.EncodeSweep("equiv", workloads.ScaleTiny, sw)
	if err != nil {
		t.Fatal(err)
	}
	want := sha(enc)
	if err := digestGate("sweep", enc, want); err != nil {
		t.Fatalf("untampered bytes: %v", err)
	}
	tampered := bytes.Replace(enc, []byte(`"ipc":`), []byte(`"ipc": `), 1)
	if err := digestGate("sweep", tampered, want); err == nil {
		t.Error("gate passed tampered result bytes")
	}
	if err := digestGate("sweep", enc, ""); err == nil {
		t.Error("gate passed with no recorded digest")
	}

	// serve-warm's row gate: a response row must equal the setup row.
	var res serve.SweepResult
	if err := json.Unmarshal(enc, &res); err != nil {
		t.Fatal(err)
	}
	c := &serveClient{rows: map[string]serve.ResultRow{}}
	for _, row := range res.Rows {
		c.rows[row.Config+"/"+row.Workload] = row
	}
	req := serve.SweepRequest{Workloads: []string{"sha", "qsort"}, Configs: []string{"MediumBOOM"}}
	if err := c.check(req, &res); err != nil {
		t.Fatalf("untampered rows: %v", err)
	}
	res.Rows[1].IPC *= 1.0000001
	if err := c.check(req, &res); err == nil {
		t.Error("row gate passed a tampered row")
	}
}

func TestStaleReferenceGuard(t *testing.T) {
	sw := tinySweep(t)
	results := sw.Results["MediumBOOM"]
	ref := accuracyRef{Config: "MediumBOOM", Scale: "tiny"}
	for _, name := range []string{"sha", "qsort"} {
		r := results[name]
		ref.Workloads = append(ref.Workloads, accuracyCell{Workload: name, TotalInsts: r.TotalInsts, CPI: 1 / r.IPC()})
	}
	errs, err := cpiErrors(ref, results)
	if err != nil || len(errs) != 2 || errs[0] != 0 || errs[1] != 0 {
		t.Fatalf("matching reference: errs %v, err %v; want two zero errors", errs, err)
	}
	ref.Workloads[1].TotalInsts++
	if _, err := cpiErrors(ref, results); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale reference: err %v, want a stale-reference failure", err)
	}
}

func TestSeedDigestIdentity(t *testing.T) {
	s := seedDigests{dir: t.TempDir()}
	if err := s.check("dse", 7, "aa"); err != nil {
		t.Fatal(err)
	}
	if err := s.check("dse", 7, "aa"); err != nil {
		t.Errorf("same digest again: %v", err)
	}
	if err := s.check("dse", 7, "bb"); err == nil {
		t.Error("a different digest for the same seed passed")
	}
}

func TestRequestMixNeverRepeats(t *testing.T) {
	names := workloads.Names()
	configs := []string{"MediumBOOM", "LargeBOOM", "MegaBOOM"}
	a, b := newRequestGen(5, names, configs), newRequestGen(5, names, configs)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		req := a.next()
		key := fmt.Sprint(req.Workloads, req.Configs)
		if seen[key] {
			t.Fatalf("request %d repeats %s", i, key)
		}
		seen[key] = true
		if len(req.Workloads) != len(names) || len(req.Configs) != 1 {
			t.Fatalf("request %d is %v x %v, want every workload on one config", i, req.Workloads, req.Configs)
		}
		if other := b.next(); fmt.Sprint(other.Workloads, other.Configs) != key {
			t.Fatalf("request %d differs between two generators with one seed", i)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSmokeAllWorkloads runs each workload once, at tiny scale with two
// design points, traced and untraced, and checks the result line: correct,
// and every metric BENCHMARK.json names present with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(bj.EndToEnd) != fmt.Sprint(endToEnd) || fmt.Sprint(bj.PerLayer) != fmt.Sprint(perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from the ones the benchmark emits")
	}
	build := t.TempDir()
	for _, w := range bj.Workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				opt := options{workload: w.Name, seed: 3, seconds: 1, trace: trace,
					scale: workloads.ScaleTiny, dsePoints: 2, buildDir: build}
				var out bytes.Buffer
				if err := execute(opt, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                  `json:"correct"`
					Attempted int                   `json:"attempted"`
					Failed    int                   `json:"failed"`
					Metrics   map[string]jsonMetric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v, want correct with no failures\n%s", res, out.String())
				}
				want := bj.EndToEnd
				if trace == 1 {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
					if trace == 0 && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == 1 && !(res.Metrics["trace.parity_cells"].Value > 0) {
					t.Errorf("traced run checked no cells for parity")
				}
			})
		}
	}
}
