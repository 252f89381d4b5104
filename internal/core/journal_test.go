package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/boom"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// resumedLabels replays the journal at path into a fresh cell graph of
// camp and returns the labels it marks resumed, plus the failed count.
func resumedLabels(camp Campaign, id, path string) (map[string]bool, int) {
	g := NewCellGraph(camp)
	_, failed := g.Resume(id, path)
	done := map[string]bool{}
	for i := 0; i < g.Len(); i++ {
		if c := g.Cell(i); c.Resumed {
			done[c.Label] = true
		}
	}
	return done, failed
}

// TestLoadJournalTornLines: a journal whose tail was cut mid-record by a
// crash must still yield every intact "done" record.
func TestLoadJournalTornLines(t *testing.T) {
	r := New(DefaultFlowConfig())
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	id := r.sweepID(tcamp(names, cfgs))

	path := filepath.Join(t.TempDir(), journalName)
	body := `{"ev":"sweep","id":"` + id + `"}
{"ev":"start","task":"profile/sha"}
{"ev":"done","task":"profile/sha","ns":7}
{"ev":"start","task":"profile/bitcount"}
{"ev":"done","task":"profile/bitcoun` // torn: process died mid-write
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	done, failed := resumedLabels(tcamp(names, cfgs), id, path)
	if !done["profile/sha"] {
		t.Error("intact done record not loaded")
	}
	if done["profile/bitcount"] {
		t.Error("torn record must not count as done")
	}
	if len(done) != 1 || failed != 0 {
		t.Errorf("done=%v failed=%d, want exactly the one intact record", done, failed)
	}
}

// TestLoadJournalForeignCampaign: a journal header from a different
// campaign (or no header at all) must never be replayed.
func TestLoadJournalForeignCampaign(t *testing.T) {
	camp := tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()})
	path := filepath.Join(t.TempDir(), journalName)
	body := `{"ev":"sweep","id":"deadbeef"}
{"ev":"done","task":"profile/sha","ns":7}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if done, _ := resumedLabels(camp, "cafef00d", path); len(done) != 0 {
		t.Errorf("foreign campaign replayed %d tasks", len(done))
	}

	headerless := `{"ev":"done","task":"profile/sha","ns":7}` + "\n"
	if err := os.WriteFile(path, []byte(headerless), 0o644); err != nil {
		t.Fatal(err)
	}
	if done, _ := resumedLabels(camp, "cafef00d", path); len(done) != 0 {
		t.Errorf("headerless journal replayed %d tasks", len(done))
	}

	if done, _ := resumedLabels(camp, "x", filepath.Join(t.TempDir(), "absent")); len(done) != 0 {
		t.Error("missing journal must yield an empty set")
	}
}

// TestSweepIDSensitivity: any campaign input drift — workload set, config
// set, flow parameters, scale — must change the fingerprint.
func TestSweepIDSensitivity(t *testing.T) {
	names := []string{"sha", "bitcount"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	base := New(DefaultFlowConfig()).sweepID(tcamp(names, cfgs))

	if got := New(DefaultFlowConfig()).sweepID(tcamp(names, cfgs)); got != base {
		t.Error("identical campaign must fingerprint identically")
	}
	if got := New(DefaultFlowConfig()).sweepID(tcamp([]string{"sha"}, cfgs)); got == base {
		t.Error("workload-set drift not detected")
	}
	if got := New(DefaultFlowConfig()).sweepID(tcamp(names, []boom.Config{boom.MegaBOOM()})); got == base {
		t.Error("config-set drift not detected")
	}
	fc := DefaultFlowConfig()
	fc.WarmupInsts++
	if got := New(fc).sweepID(tcamp(names, cfgs)); got == base {
		t.Error("flow-parameter drift not detected")
	}
}

// TestJournalWrittenDuringSweep: with a cache attached, a sweep leaves a
// complete journal (header + one record per finished cell) at JournalPath.
func TestJournalWrittenDuringSweep(t *testing.T) {
	dir := t.TempDir()
	r := New(DefaultFlowConfig(), WithCache(dir))
	names := []string{"sha"}
	cfgs := []boom.Config{boom.MediumBOOM()}
	if _, err := r.Sweep(context.Background(), tcamp(names, cfgs)); err != nil {
		t.Fatal(err)
	}
	rp := journal.Read(r.sweepID(tcamp(names, cfgs)), JournalPath(dir))
	if rp.Failed != 0 {
		t.Errorf("clean sweep journaled %d failures", rp.Failed)
	}
	for _, task := range []string{"profile/sha", "measure/MediumBOOM/sha"} {
		if _, ok := rp.Cells[task]; !ok {
			t.Errorf("journal missing done record for %s (have %v)", task, rp.Cells)
		}
	}
	if len(rp.Cells) != 2 {
		t.Errorf("journal lists %d done tasks, want 2", len(rp.Cells))
	}
}

// TestJournalWriteErrorSurfaced: a sweep whose journal rejects writes
// (here a journal on a full device) must not silently drop records. The
// first failed append increments core.sweep.journal_write_errors, warns
// exactly once through the progress sink, and disables the journal for
// the rest of the sweep so the failure degrades to "no journal" instead
// of a half-written one that -resume would half-trust. The sweep itself
// still succeeds.
func TestJournalWriteErrorSurfaced(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full on this platform: %v", err)
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", JournalPath(dir)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	var mu sync.Mutex
	var warns int
	r := New(DefaultFlowConfig(), WithCache(dir), WithMetrics(reg), WithProgress(func(s string) {
		mu.Lock()
		defer mu.Unlock()
		if strings.Contains(s, "journal") {
			warns++
		}
	}))
	sw, err := r.Sweep(context.Background(), tcamp([]string{"sha", "qsort"}, []boom.Config{boom.MediumBOOM()}))
	if err != nil || len(sw.Results["MediumBOOM"]) != 2 {
		t.Fatalf("a failing journal must not fail the sweep: %v", err)
	}
	if got := reg.Counter("core.sweep.journal_write_errors").Value(); got != 1 {
		t.Errorf("core.sweep.journal_write_errors = %d, want 1 (first error only)", got)
	}
	if warns != 1 {
		t.Errorf("warned %d times, want exactly 1", warns)
	}
}

// TestJournalShortWriteSurfaced: a write the OS rejects (/dev/full fails
// writes with ENOSPC) must be counted as a write error, not success.
func TestJournalShortWriteSurfaced(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full on this platform: %v", err)
	}
	reg := metrics.NewRegistry()
	jn := journal.Open("/dev/full", "x", true, reg.Counter("core.sweep.journal_write_errors"), nil)
	if jn == nil {
		t.Fatal("journal not opened")
	}
	defer jn.Close()
	jn.Done("measure/MediumBOOM/sha", nil)
	if got := reg.Counter("core.sweep.journal_write_errors").Value(); got != 1 {
		t.Errorf("ENOSPC write surfaced %d errors, want 1", got)
	}
}

// TestJournalHeaderDurable: openJournal must put the campaign header on
// disk (fsynced) before the sweep starts, so the journal's identity
// survives a crash that follows immediately.
func TestJournalHeaderDurable(t *testing.T) {
	dir := t.TempDir()
	r := New(DefaultFlowConfig(), WithCache(dir))
	camp := tcamp([]string{"sha"}, []boom.Config{boom.MediumBOOM()})
	jn := r.openJournal(camp, NewCellGraph(camp))
	if jn == nil {
		t.Fatal("journal not opened")
	}
	defer jn.Close()
	data, err := os.ReadFile(JournalPath(dir))
	if err != nil || !strings.Contains(string(data), `"id":"`+r.sweepID(camp)+`"`) {
		t.Fatalf("header not readable from disk right after open: %q (err=%v)", data, err)
	}
}
