package journal

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/metrics"
)

// TestReadDialects: one reader serves every journal dialect on disk — a
// legacy single-node sweep journal ("sweep" header, "start"/"done"/"fail"
// records), a journal written by this package, and a legacy fabric
// fragment whose revoke retracts a suspect cell.
func TestReadDialects(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "sweep.journal")
	if err := os.WriteFile(legacy, []byte(`{"ev":"sweep","id":"camp"}
{"ev":"start","task":"profile/sha"}
{"ev":"done","task":"profile/sha","ns":12}
{"ev":"start","task":"measure/MediumBOOM/sha"}
{"ev":"fail","task":"measure/MediumBOOM/sha","err":"boom"}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	current := filepath.Join(dir, "current.journal")
	w := Open(current, "camp", false, nil, t.Logf)
	w.Done("profile/qsort", nil)
	w.Done("measure/MediumBOOM/qsort", []byte("qsort@medium"))
	w.Fail("measure/MegaBOOM/qsort", "deadlock")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	fragment := filepath.Join(dir, "fabric-camp.journal")
	if err := os.WriteFile(fragment, []byte(`{"ev":"fabric","id":"camp"}
{"ev":"cell","task":"measure/MegaBOOM/sha","payload":"c2hhQG1lZ2E="}
{"ev":"cell","task":"measure/LargeBOOM/sha","payload":"bGllcw=="}
{"ev":"revoke","task":"measure/LargeBOOM/sha"}
`), 0o644); err != nil {
		t.Fatal(err)
	}

	rp := Read("camp", legacy, current, fragment)
	want := map[string]string{
		"profile/sha":              "",
		"profile/qsort":            "",
		"measure/MediumBOOM/qsort": "qsort@medium",
		"measure/MegaBOOM/sha":     "sha@mega",
	}
	if len(rp.Cells) != len(want) {
		t.Errorf("read %d cells, want %d: %q", len(rp.Cells), len(want), rp.Cells)
	}
	for label, payload := range want {
		if got, ok := rp.Cells[label]; !ok || string(got) != payload {
			t.Errorf("%s = %q, %v; want %q", label, got, ok, payload)
		}
	}
	if _, ok := rp.Cells["measure/LargeBOOM/sha"]; ok {
		t.Error("revoked cell must not be replayed")
	}
	if rp.Failed != 2 {
		t.Errorf("failed = %d, want 2 (one per dialect that records failures)", rp.Failed)
	}
	if other := Read("other", legacy, current, fragment); len(other.Cells) != 0 || other.Failed != 0 {
		t.Errorf("foreign campaign replayed %v", other.Cells)
	}
}

// TestWriteErrorDisablesOnce: a journal whose file rejects writes (here a
// file opened read-only, standing in for a failing disk) counts the first
// failure, warns exactly once, and then stays silent and inert — nothing
// reaches the file.
func TestWriteErrorDisablesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ro.journal")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reg := metrics.NewRegistry()
	var warns int
	w := &Writer{f: f, errs: reg.Counter("errs"), warn: func(string, ...interface{}) { warns++ }}
	w.Done("profile/sha", nil)
	w.Done("measure/MediumBOOM/sha", []byte("x"))
	w.Revoke("measure/MediumBOOM/sha")

	if got := reg.Counter("errs").Value(); got != 1 {
		t.Errorf("write errors = %d, want 1 (first error only)", got)
	}
	if warns != 1 {
		t.Errorf("warned %d times, want exactly 1", warns)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) != 0 {
		t.Errorf("read-only journal has %d bytes on disk, want 0 (err=%v)", len(data), err)
	}
}
