package core

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/boom"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// This file is the campaign-fingerprint compatibility suite. The Campaign
// redesign replaced the (names, configs) pair throughout the sweep API,
// but the fingerprint — the identity that keys journals, boomd jobs and
// dedupe — must stay byte-compatible with the pre-redesign encoding, or
// every existing journal and cache directory silently stops resuming.
// The hex values below were captured from the pre-Campaign code and are
// load-bearing: if one of these tests fails, the fix is to restore the
// encoding, never to update the constant.
const (
	// All 11 workloads x the three named BOOM corners, ScaleTiny flow.
	fpTrioTinyAll = "7ca397f61868bc0960a03e5b548fc38298df2a7d186269a7b0b4c6eb20f5de40"
	// [sha qsort] x [MediumBOOM], ScaleTiny flow.
	fpShaQsortMedium = "19b9181fede44501869b1c4d01e5c4e0e48474bbc1391f8d9eaca5e9b3b5743f"
	// All 11 workloads x the three corners at default scale/flow.
	fpTrioDefaultAll = "1e5403d4ad2c0f3a40822d1f221269c6a014afada5d92abd80f6e927869c9d26"
)

func pinnedRunner(t *testing.T, scale workloads.Scale, opts ...Option) *Runner {
	t.Helper()
	return New(FlowConfigFor(scale), append([]Option{WithScale(scale)}, opts...)...)
}

// TestPinnedCampaignFingerprints replays three campaigns that existed
// before the Campaign redesign and checks their fingerprints against the
// hexes the old (names, configs) API produced.
func TestPinnedCampaignFingerprints(t *testing.T) {
	cases := []struct {
		name  string
		camp  Campaign
		scale workloads.Scale
		want  string
	}{
		{
			name:  "trio-tiny-all",
			camp:  NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleTiny),
			scale: workloads.ScaleTiny,
			want:  fpTrioTinyAll,
		},
		{
			name:  "sha-qsort-medium",
			camp:  NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
			scale: workloads.ScaleTiny,
			want:  fpShaQsortMedium,
		},
		{
			name:  "trio-default-all",
			camp:  NewCampaign(workloads.Names(), boom.Configs(), workloads.ScaleDefault),
			scale: workloads.ScaleDefault,
			want:  fpTrioDefaultAll,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedRunner(t, tc.scale).CampaignID(tc.camp)
			if got != tc.want {
				t.Fatalf("fingerprint drifted: got %s, want %s\n"+
					"A pre-redesign journal or cache keyed by the old ID would no longer resume.", got, tc.want)
			}
		})
	}
}

// TestLegacyJournalResumes writes a journal in the exact on-disk format
// the pre-redesign code produced — header keyed by the pinned fingerprint,
// then "done" records with the old task labels — and checks that a sweep
// through the new Campaign API treats those tasks as resumed.
func TestLegacyJournalResumes(t *testing.T) {
	dir := t.TempDir()
	legacy := []string{
		`{"ev":"sweep","id":"` + fpShaQsortMedium + `"}`,
		`{"ev":"done","task":"profile/sha","ns":12345}`,
		`{"ev":"done","task":"profile/qsort","ns":23456}`,
		`{"ev":"done","task":"measure/MediumBOOM/sha","ns":34567}`,
	}
	f, err := os.Create(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range legacy {
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	r := pinnedRunner(t, workloads.ScaleTiny,
		WithCache(dir), WithResume(true), WithMetrics(reg))
	camp := NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	sw, err := r.Sweep(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Results) != 1 || len(sw.Results["MediumBOOM"]) != 2 {
		t.Fatalf("sweep incomplete after legacy resume: %+v", sw.Results)
	}
	if got := reg.Counter("core.sweep.tasks_resumed").Value(); got != int64(len(legacy)-1) {
		t.Fatalf("tasks_resumed = %d, want %d: the legacy journal's done-set was not honored", got, len(legacy)-1)
	}
}

// TestFingerprintSensitiveToEveryConfigField mutates every field of a
// boom.Config by reflection and requires the campaign fingerprint to
// change. This is what makes parametric design points (internal/dse)
// first-class identities: any knob an axis can turn is part of the
// campaign ID, so two design points never collide in the journal or the
// boomd job table.
func TestFingerprintSensitiveToEveryConfigField(t *testing.T) {
	r := pinnedRunner(t, workloads.ScaleTiny)
	base := NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	baseID := r.CampaignID(base)

	rt := reflect.TypeOf(boom.Config{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		cfg := boom.MediumBOOM()
		fv := reflect.ValueOf(&cfg).Elem().Field(i)
		switch fv.Kind() {
		case reflect.String:
			fv.SetString(fv.String() + "-mutated")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		default:
			t.Fatalf("boom.Config.%s has kind %s — extend the mutation table so the fingerprint stays sensitive to it", field.Name, fv.Kind())
		}
		mut := NewCampaign([]string{"sha"}, []boom.Config{cfg}, workloads.ScaleTiny)
		if r.CampaignID(mut) == baseID {
			t.Errorf("fingerprint blind to boom.Config.%s: two different design points would share a journal", field.Name)
		}
	}
}

// TestFingerprintSensitiveToCampaignShape covers the non-config axes of
// identity: workload membership and order, config multiplicity, and scale.
func TestFingerprintSensitiveToCampaignShape(t *testing.T) {
	r := pinnedRunner(t, workloads.ScaleTiny)
	base := NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny)
	baseID := r.CampaignID(base)

	variants := map[string]Campaign{
		"workload dropped": NewCampaign([]string{"sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"workload added":   NewCampaign([]string{"sha", "qsort", "fft"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"workload reorder": NewCampaign([]string{"qsort", "sha"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleTiny),
		"config added":     NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM(), boom.LargeBOOM()}, workloads.ScaleTiny),
		"scale changed":    NewCampaign([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}, workloads.ScaleDefault),
	}
	for name, camp := range variants {
		if r.CampaignID(camp) == baseID {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
}
