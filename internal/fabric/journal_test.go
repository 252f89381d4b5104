package fabric

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// writeFragment builds a fragment file through the production writer
// (internal/journal, shared with the single-node sweep journal).
func writeFragment(t *testing.T, dir, name, campaignID string, cells map[string][]byte, order []string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w := journal.Open(path, campaignID, false, nil, t.Logf)
	if w == nil {
		t.Fatal("journal.Open failed")
	}
	for _, label := range order {
		w.Done(label, cells[label])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMergeInterleaved: fragments from two workers that each finished a
// disjoint half of a campaign merge to the union, payloads intact.
func TestMergeInterleaved(t *testing.T) {
	dir := t.TempDir()
	a := writeFragment(t, dir, "a.journal", "camp-1", map[string][]byte{
		"profile/sha":        nil,
		"measure/medium/sha": []byte("sha@medium"),
		"measure/mega/qsort": []byte("qsort@mega"),
	}, []string{"profile/sha", "measure/medium/sha", "measure/mega/qsort"})
	b := writeFragment(t, dir, "b.journal", "camp-1", map[string][]byte{
		"profile/qsort":        nil,
		"measure/mega/sha":     []byte("sha@mega"),
		"measure/medium/qsort": []byte("qsort@medium"),
	}, []string{"profile/qsort", "measure/mega/sha", "measure/medium/qsort"})

	cells := MergeJournals("camp-1", a, b)
	if len(cells) != 6 {
		t.Fatalf("merged %d cells, want 6: %v", len(cells), cells)
	}
	for label, want := range map[string]string{
		"measure/medium/sha":   "sha@medium",
		"measure/mega/sha":     "sha@mega",
		"measure/medium/qsort": "qsort@medium",
		"measure/mega/qsort":   "qsort@mega",
	} {
		if got, ok := cells[label]; !ok || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", label, got, ok, want)
		}
	}
	// Profile cells merge with presence semantics: present, nil payload.
	for _, label := range []string{"profile/sha", "profile/qsort"} {
		if payload, ok := cells[label]; !ok || payload != nil {
			t.Errorf("%s = %q, %v; want present with nil payload", label, payload, ok)
		}
	}
}

// TestMergeDuplicateFirstWins: a cell finished by two workers (lease
// stolen, both completed) resolves silently to the first fragment's
// payload — determinism makes the duplicates byte-identical in a healthy
// cluster, so the choice is unobservable there; this test makes them
// differ to pin which one wins.
func TestMergeDuplicateFirstWins(t *testing.T) {
	dir := t.TempDir()
	a := writeFragment(t, dir, "a.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("first")},
		[]string{"measure/medium/sha"})
	b := writeFragment(t, dir, "b.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("second")},
		[]string{"measure/medium/sha"})
	cells := MergeJournals("camp-1", a, b)
	if got := string(cells["measure/medium/sha"]); got != "first" {
		t.Errorf("duplicate resolved to %q, want first occurrence", got)
	}
	// And in the opposite path order the other fragment wins.
	cells = MergeJournals("camp-1", b, a)
	if got := string(cells["measure/medium/sha"]); got != "second" {
		t.Errorf("reversed order resolved to %q, want %q", got, "second")
	}
}

// TestMergeTornTrailingLine: a crash mid-append leaves a torn final line;
// the complete prefix still merges.
func TestMergeTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	p := writeFragment(t, dir, "a.journal", "camp-1", map[string][]byte{
		"profile/sha":        nil,
		"measure/medium/sha": []byte("ok"),
	}, []string{"profile/sha", "measure/medium/sha"})
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ev":"cell","task":"measure/mega/sha","pa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cells := MergeJournals("camp-1", p)
	if len(cells) != 2 {
		t.Fatalf("merged %d cells, want the 2 complete ones: %v", len(cells), cells)
	}
	if _, ok := cells["measure/mega/sha"]; ok {
		t.Error("torn record must not merge")
	}
}

// TestMergeForeignFragment: a fragment whose header pins a different
// campaign is ignored whole — fragments never cross-pollinate campaigns.
func TestMergeForeignFragment(t *testing.T) {
	dir := t.TempDir()
	ours := writeFragment(t, dir, "ours.journal", "camp-1",
		map[string][]byte{"measure/medium/sha": []byte("ours")},
		[]string{"measure/medium/sha"})
	theirs := writeFragment(t, dir, "theirs.journal", "camp-2",
		map[string][]byte{"measure/medium/sha": []byte("theirs"), "measure/mega/fft": []byte("x")},
		[]string{"measure/medium/sha", "measure/mega/fft"})

	cells := MergeJournals("camp-1", ours, theirs)
	if len(cells) != 1 || string(cells["measure/medium/sha"]) != "ours" {
		t.Errorf("merge polluted by foreign fragment: %v", cells)
	}
	// Missing files are skipped, not fatal.
	cells = MergeJournals("camp-1", filepath.Join(dir, "nope.journal"), ours)
	if len(cells) != 1 {
		t.Errorf("missing fragment path broke the merge: %v", cells)
	}
}

// TestFragmentExtendRoundTrip: the coordinator-restart shape — recover
// cells from a fragment, reopen it in extend mode, append more, and
// verify a second recovery sees both generations.
func TestFragmentExtendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := FragmentPath(dir, "0123456789abcdef0123")
	w := journal.Open(path, "0123456789abcdef0123", false, nil, t.Logf)
	w.Done("profile/sha", nil)
	w.Done("measure/medium/sha", []byte("gen-1"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := MergeJournals("0123456789abcdef0123", path)
	if len(got) != 2 {
		t.Fatalf("first recovery %v", got)
	}

	w = journal.Open(path, "0123456789abcdef0123", true, nil, t.Logf)
	w.Done("measure/mega/sha", []byte("gen-2"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got = MergeJournals("0123456789abcdef0123", path)
	if len(got) != 3 || string(got["measure/mega/sha"]) != "gen-2" || string(got["measure/medium/sha"]) != "gen-1" {
		t.Fatalf("second recovery %v", got)
	}

	// Truncate mode (a fresh campaign admission without resume) discards
	// the old generations.
	w = journal.Open(path, "0123456789abcdef0123", false, nil, t.Logf)
	w.Done("profile/fft", nil)
	w.Close()
	got = MergeJournals("0123456789abcdef0123", path)
	if len(got) != 1 {
		t.Fatalf("truncating reopen kept stale cells: %v", got)
	}
}

// TestNilFragmentWriter: a nil writer (journaling disabled) is inert.
func TestNilFragmentWriter(t *testing.T) {
	var w *journal.Writer
	w.Done("measure/medium/sha", []byte("x"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}
