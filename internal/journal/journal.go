// Package journal is the campaign write-ahead log shared by the sweep
// engine (internal/core) and the distributed fabric (internal/fabric).
// One JSON object per line:
//
//	{"ev":"campaign","id":FINGERPRINT}       header, fsynced on create
//	{"ev":"cell","task":LABEL,"payload":…}   a finished cell (payload optional)
//	{"ev":"fail","task":LABEL,"err":MSG}     a cell that failed terminally
//	{"ev":"revoke","task":LABEL}             retracts earlier cell records
//
// The header pins the campaign fingerprint so a journal is never replayed
// into a different campaign. Records are written with one syscall each,
// so a killed process loses at most the line being written, and readers
// skip torn lines. Read also honours the two dialects this format
// replaced: the single-node sweep journal ("sweep" header, "done"
// records, ignored "start" records) and the fabric's fragments ("fabric"
// header).
package journal

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/metrics"
)

// record is one JSONL line.
type record struct {
	Ev      string `json:"ev"`
	ID      string `json:"id,omitempty"`
	Task    string `json:"task,omitempty"`
	Err     string `json:"err,omitempty"`
	Payload []byte `json:"payload,omitempty"` // base64 via encoding/json
}

// Header and cell event names, current first, then the legacy dialects.
var (
	headerEvs = map[string]bool{"campaign": true, "sweep": true, "fabric": true}
	cellEvs   = map[string]bool{"cell": true, "done": true}
)

// Writer is an open, append-only journal. Methods are safe for concurrent
// use, and a nil *Writer is inert so callers need no guards.
//
// Write errors are never swallowed: a log that silently drops a finished
// cell would make a later resume rerun — or worse, half-trust — work that
// completed. The first failed write increments the error counter, warns
// once, and disables the writer, so the failure degrades to "no journal"
// (a resume reruns the unjournaled cells), never to a plausible-but-wrong
// one.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	errs     *metrics.Counter // nil-safe
	warn     func(format string, args ...interface{})
	disabled bool
}

// Open opens the journal at path for campaign id. With extend the file is
// appended to (its header already names id — the caller recovered cells
// from it); otherwise it is truncated and a fresh header written and
// fsynced, so the campaign identity is durable before any work starts.
// errs counts write failures and warn receives the one warning; both may
// be nil. Open returns nil (journaling disabled, after a warning) when the
// file cannot be opened.
func Open(path, id string, extend bool, errs *metrics.Counter, warn func(string, ...interface{})) *Writer {
	if warn == nil {
		warn = func(string, ...interface{}) {}
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if extend {
		flags = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	var f *os.File
	if err == nil {
		f, err = os.OpenFile(path, flags, 0o644)
	}
	if err != nil {
		warn("journal disabled: %v", err)
		return nil
	}
	w := &Writer{f: f, errs: errs, warn: warn}
	if !extend {
		w.write(record{Ev: "campaign", ID: id}, true)
	}
	return w
}

// Done records a finished cell, with an optional payload.
func (w *Writer) Done(label string, payload []byte) {
	w.write(record{Ev: "cell", Task: label, Payload: payload}, false)
}

// Fail records a cell that failed terminally.
func (w *Writer) Fail(label, msg string) {
	w.write(record{Ev: "fail", Task: label, Err: msg}, false)
}

// Revoke retracts every earlier record of label (a result later found
// untrustworthy), so a resume reruns the cell instead of trusting it. A
// cell re-finished after the revoke is recorded, and trusted, normally.
// Revokes are fsynced: losing one would resurrect the suspect result.
func (w *Writer) Revoke(label string) {
	w.write(record{Ev: "revoke", Task: label}, true)
}

func (w *Writer) write(rec record, sync bool) {
	if w == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return // record always marshals; stay inert regardless
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.disabled {
		return
	}
	n, err := w.f.Write(line) // one write syscall per record: crash loses ≤1 line
	if err == nil && n < len(line) {
		err = io.ErrShortWrite
	}
	if err == nil && sync {
		err = w.f.Sync()
	}
	if err != nil {
		w.disabled = true
		w.errs.Inc()
		w.warn("journal %s disabled after write error (a resume will rerun unjournaled cells): %v", w.f.Name(), err)
	}
}

// Close closes the file.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	return w.f.Close()
}

// Replay is what a set of journals says about one campaign.
type Replay struct {
	// Cells maps each finished cell's label to its payload (nil when the
	// cell was journaled without one; use the comma-ok form to tell a
	// payload-less cell from an absent one).
	Cells map[string][]byte
	// Failed counts fail records.
	Failed int
}

// Read merges the journals at paths into one Replay for campaign id.
// Files whose header names a different campaign (or that have no header)
// are ignored whole; missing files, torn lines and unparseable records are
// skipped. On a duplicate label the first occurrence — in path order, then
// file order — wins: results are deterministic functions of the campaign
// fingerprint, so healthy duplicates are byte-identical. A revoke deletes
// the label from everything read so far.
func Read(id string, paths ...string) Replay {
	rp := Replay{Cells: map[string][]byte{}}
	for _, p := range paths {
		rp.merge(p, id)
	}
	return rp
}

func (rp *Replay) merge(path, id string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	first := true
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn write from a crash: ignore the fragment
		}
		if first {
			if !headerEvs[rec.Ev] || rec.ID != id {
				return // foreign or headerless: never replay
			}
			first = false
			continue
		}
		switch {
		case rec.Task == "":
		case rec.Ev == "fail":
			rp.Failed++
		case rec.Ev == "revoke":
			delete(rp.Cells, rec.Task)
		case cellEvs[rec.Ev]:
			if _, dup := rp.Cells[rec.Task]; !dup {
				rp.Cells[rec.Task] = rec.Payload
			}
		}
	}
}
