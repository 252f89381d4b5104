package main

import (
	"strings"
	"testing"
)

// TestModeFlagRejections: a flag the chosen mode never reads is an error
// naming it, returned before any listener or worker starts — not a
// setting silently ignored. Every args list below would otherwise start a
// daemon or a worker, so reaching a listener would hang the test.
func TestModeFlagRejections(t *testing.T) {
	worker := []string{"-worker", "-coordinator", "http://127.0.0.1:1", "-worker-id", "w"}
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{append(worker, "-cache-verify"), "-cache-verify"},
		{append(worker, "-resume"), "-resume"},
		{append(worker, "-retries", "2"), "-retries"},
		{append(worker, "-keep-going"), "-keep-going"},
		{append(worker, "-stage-timeout", "1s"), "-stage-timeout"},
		{append(worker, "-remote-store", "http://store"), "-remote-store"},
		{append(worker, "-interval", "1000"), "-interval"},
		{append(worker, "-features", "bbv+mav"), "-features"},
		{append(worker, "-sp-dims", "8"), "-sp-dims"},
		{append(worker, "-sp-maxk", "4"), "-sp-maxk"},
		{append(worker, "-warmup", "none"), "-warmup"},
		{append(worker, "-addr", "127.0.0.1:0"), "-addr"},
		{append(worker, "-queue", "2"), "-queue"},
		{append(worker, "-workers", "2"), "-workers"},
		{append(worker, "-grace", "1s"), "-grace"},
		{append(worker, "-q"), "-q "},
		{append(worker, "-lease", "1s"), "-lease"},
		{append(worker, "-audit", "0.5"), "-audit"},
		{[]string{"-addr", "127.0.0.1:0", "-coordinator", "http://head:8080"}, "-coordinator"},
		{[]string{"-addr", "127.0.0.1:0", "-worker-id", "w"}, "-worker-id"},
	}
	for _, tc := range cases {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestWorkerModeFlagsAccepted: the flags a worker does read pass the mode
// check, and so do defaults. With no -coordinator the run then stops at
// the worker's own precondition, still before anything starts.
func TestWorkerModeFlagsAccepted(t *testing.T) {
	err := run([]string{"-worker", "-worker-id", "w", "-cache", t.TempDir(), "-j", "2",
		"-chaos", "1:fabric.report=error", "-remote-connect-timeout", "1s", "-remote-timeout", "2s"})
	if err == nil || !strings.Contains(err.Error(), "-worker requires -coordinator") {
		t.Errorf("err %v, want the missing -coordinator error", err)
	}
}
