package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/boom"
)

// TestSweepMeasuresBeforeSlowProfile: the sweep is one cell graph, not
// two phases. With two workers and qsort's profile stalled, sha's
// measurement must start as soon as sha's own profile is done — before
// qsort's profile finishes — and the results must stay byte-identical to
// a serial sweep.
func TestSweepMeasuresBeforeSlowProfile(t *testing.T) {
	camp := tcamp([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()})
	ctx := context.Background()
	var mu sync.Mutex
	var lines []string
	sw, err := New(DefaultFlowConfig(),
		WithParallelism(2),
		WithFaultInjector(mustInj(t, "1:core.profile/qsort=delay:2s")),
		WithProgress(func(s string) {
			mu.Lock()
			lines = append(lines, s)
			mu.Unlock()
		}),
	).Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	measuredSha, qsortProfiled := -1, -1
	for i, s := range lines {
		switch {
		case strings.HasPrefix(s, "measuring sha"):
			measuredSha = i
		case strings.HasPrefix(strings.TrimSpace(s), "qsort") && strings.Contains(s, "insts"):
			qsortProfiled = i
		}
	}
	if measuredSha < 0 || qsortProfiled < 0 {
		t.Fatalf("progress log incomplete:\n%s", strings.Join(lines, "\n"))
	}
	if measuredSha > qsortProfiled {
		t.Errorf("sha was measured only after qsort's profile finished (a profile barrier):\n%s",
			strings.Join(lines, "\n"))
	}

	ref, err := New(DefaultFlowConfig(), WithParallelism(1)).Sweep(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range camp.Workloads {
		got, want := sw.Results["MediumBOOM"][n], ref.Results["MediumBOOM"][n]
		if got == nil || !bytes.Equal(payloadOf(t, got), payloadOf(t, want)) {
			t.Errorf("%s: -j 2 result not byte-identical to -j 1", n)
		}
	}
}
