package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
)

// TestRunCellMatchesSweep: RunCell is the executor a node holding one
// cell at a time runs, so its bytes must be Sweep's. A Runner on a fresh
// cache runs every profile cell, then every measure cell, one label at a
// time; each measure cell's bytes must equal the canonical encoding of the
// same cell in a Sweep on a separate cache. An unknown label is an error,
// and a panicking cell comes back through the shared supervisor as a
// *StageError carrying the recovered stack.
func TestRunCellMatchesSweep(t *testing.T) {
	ctx := context.Background()
	camp := tcamp([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM(), boom.MegaBOOM()})

	sw, err := New(DefaultFlowConfig(), WithCache(t.TempDir())).Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}

	r := New(DefaultFlowConfig(), WithCache(t.TempDir()))
	for _, wl := range camp.Workloads {
		label := CellLabel(CellProfile, "", wl)
		payload, err := r.RunCell(ctx, camp, label)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if payload != nil {
			t.Errorf("%s returned %d bytes; a profile cell's product is its cached chain", label, len(payload))
		}
	}
	for _, cfg := range camp.Configs {
		for _, wl := range camp.Workloads {
			label := CellLabel(CellMeasure, cfg.Name, wl)
			got, err := r.RunCell(ctx, camp, label)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := EncodeMeasuredResult(sw.Results[cfg.Name][wl])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: RunCell bytes differ from Sweep's (%d vs %d bytes)", label, len(got), len(want))
			}
		}
	}

	if _, err := r.RunCell(ctx, camp, "measure/NoSuchBOOM/sha"); err == nil {
		t.Error("RunCell accepted a label outside the campaign")
	}

	reg := metrics.NewRegistry()
	chaos := New(DefaultFlowConfig(), WithMetrics(reg),
		WithFaultInjector(mustInj(t, "1:core.measure/sha/MediumBOOM=panic")))
	_, err = chaos.RunCell(ctx, camp, CellLabel(CellMeasure, "MediumBOOM", "sha"))
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("panicking cell returned %v, want a *StageError", err)
	}
	if !se.Panicked || len(se.Stack) == 0 {
		t.Errorf("panic not recovered with its stack: Panicked=%v, %d stack bytes", se.Panicked, len(se.Stack))
	}
	if se.Stage != StageMeasure || se.Workload != "sha" || se.Config != "MediumBOOM" {
		t.Errorf("panic attributed to %s/%s/%s", se.Stage, se.Workload, se.Config)
	}
	if got := reg.Counter("core.sweep.panics").Value(); got != 1 {
		t.Errorf("core.sweep.panics = %d, want 1", got)
	}
}
