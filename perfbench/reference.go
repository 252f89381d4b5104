package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/boom"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// reference holds the recorded expectations every run is checked against.
// It lives beside the benchmark (perfbench/reference.json) and is
// regenerated with the command in its Regenerate field.
type reference struct {
	Regenerate string `json:"regenerate"`
	// SweepCold is the SHA-256 of serve.EncodeSweep("sweep-cold",
	// default scale, …) for the 11x3 legacy-spec sweep.
	SweepCold string `json:"sweep_cold_sweepjson_sha256"`
	// DSESeed and DSEReport pin the dse.EncodeReport digest of the
	// dse-measure campaign drawn from that seed.
	DSESeed   int64  `json:"dse_seed"`
	DSEReport string `json:"dse_report_sha256"`
	// Accuracy is the full-detail reference of the 11 default-scale
	// workloads on one config (core.Runner.RunFull).
	Accuracy accuracyRef `json:"accuracy"`
}

type accuracyRef struct {
	Config    string         `json:"config"`
	Scale     string         `json:"scale"`
	Workloads []accuracyCell `json:"workloads"`
}

type accuracyCell struct {
	Workload   string  `json:"workload"`
	TotalInsts uint64  `json:"total_insts"`
	CPI        float64 `json:"cpi"`
}

const referencePath = "perfbench/reference.json"

func loadReference(path string) (*reference, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &ref, nil
}

func writeReference(path string, ref *reference) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// digestGate fails when the canonical bytes do not hash to want.
func digestGate(what string, enc []byte, want string) error {
	if want == "" {
		return fmt.Errorf("%s: no reference digest recorded", what)
	}
	if got := sha(enc); got != want {
		return fmt.Errorf("%s: digest %s, reference %s", what, got, want)
	}
	return nil
}

// goldenSweepJSON reads the sweepjson digest of the tiny 11x3 sweep from
// the repository's equivalence golden file.
func goldenSweepJSON(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading equivalence golden: %w", err)
	}
	for _, ln := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(strings.TrimSpace(ln), " "); ok && k == "sweepjson" {
			return v, nil
		}
	}
	return "", fmt.Errorf("%s: no sweepjson line", path)
}

const equivalenceGolden = "testdata/equivalence_golden.txt"

// cpiErrors compares the sampled CPI of each reference workload against
// the recorded full-detail CPI and returns the absolute errors in percent,
// in reference order. A sampled TotalInsts that differs from the recorded
// one means the workloads changed since the reference was taken: the
// reference is stale and no error figure is produced.
func cpiErrors(ref accuracyRef, results map[string]*core.Result) ([]float64, error) {
	if len(ref.Workloads) == 0 {
		return nil, fmt.Errorf("accuracy reference is empty")
	}
	out := make([]float64, 0, len(ref.Workloads))
	for _, c := range ref.Workloads {
		res := results[c.Workload]
		if res == nil || res.Stats == nil {
			return nil, fmt.Errorf("accuracy: no sampled %s result for %s", ref.Config, c.Workload)
		}
		if res.TotalInsts != c.TotalInsts {
			return nil, fmt.Errorf("accuracy reference is stale: %s has %d instructions, reference %d (regenerate with %q)",
				c.Workload, res.TotalInsts, c.TotalInsts, "bash perfbench/run.sh --regen-reference")
		}
		ipc := res.IPC()
		if !(ipc > 0) || !(c.CPI > 0) {
			return nil, fmt.Errorf("accuracy: %s has no CPI (sampled IPC %g, reference CPI %g)", c.Workload, ipc, c.CPI)
		}
		out = append(out, 100*math.Abs(1/ipc-c.CPI)/c.CPI)
	}
	return out, nil
}

// seedDigests remembers, per seed, the digest a seed-drawn campaign
// produced on an earlier run in the same checkout, so a later run with the
// same seed is checked for identity.
type seedDigests struct{ dir string }

// check records the digest on first sight and compares it afterwards.
func (s seedDigests) check(kind string, seed int64, digest string) error {
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%d.sha256", kind, seed))
	prev, err := os.ReadFile(path)
	if err == nil {
		if want := strings.TrimSpace(string(prev)); want != digest {
			return fmt.Errorf("%s seed %d: digest %s, an earlier run produced %s", kind, seed, digest, want)
		}
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644)
}

// regenReference re-records the reference from the current code: the
// sweep-cold and dse-measure digests, and the full-detail accuracy
// reference (core.Runner.RunFull on every default-scale workload).
func regenReference(e *runEnv, path string) error {
	e.scale = workloads.ScaleDefault
	scale := e.scale
	ref := &reference{Regenerate: "bash perfbench/run.sh --regen-reference", DSESeed: defaultSeed}
	fc := core.FlowConfigFor(scale)

	runner := core.New(fc, core.WithScale(scale), core.WithParallelism(e.nproc))
	sw, err := runner.Sweep(e.ctx, core.NewCampaign(workloads.Names(), boom.Configs(), scale))
	if err != nil {
		return err
	}
	enc, err := serve.EncodeSweep("equiv", scale, sw)
	if err != nil {
		return err
	}
	ref.SweepCold = sha(enc)

	points, err := drawDesignPoints(defaultSeed, dsePoints)
	if err != nil {
		return err
	}
	dir, err := e.freshDir("regen-dse")
	if err != nil {
		return err
	}
	camp := core.Campaign{Workloads: dseWorkloads, Configs: points, Scale: scale}
	dr := core.New(fc, core.WithScale(scale), core.WithCache(dir), core.WithParallelism(e.nproc))
	dsw, err := dr.Sweep(e.ctx, camp)
	if err != nil {
		return err
	}
	if enc, _, err = dseReport(dr.CampaignID(camp), scale, dsw); err != nil {
		return err
	}
	ref.DSEReport = sha(enc)

	cfg := boom.MediumBOOM()
	ref.Accuracy = accuracyRef{Config: cfg.Name, Scale: scale.String()}
	names := workloads.Names()
	cells := make([]accuracyCell, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, e.nproc)
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, name string) {
			defer func() { <-sem; wg.Done() }()
			w, err := workloads.Build(name, scale)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := runner.RunFull(e.ctx, w, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			cells[i] = accuracyCell{Workload: name, TotalInsts: res.TotalInsts,
				CPI: float64(res.Stats.Cycles) / float64(res.Stats.Insts)}
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	ref.Accuracy.Workloads = cells
	return writeReference(path, ref)
}
