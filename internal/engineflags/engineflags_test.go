package engineflags

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// parse registers the shared flags (plus metrics) on a throwaway FlagSet
// and parses args, failing the test on a parse error.
func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	f.RegisterMetrics(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return f
}

// TestValidateRejections: every invalid combination must fail with an
// error that names the offending flag — not be clamped or ignored.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-j", "0"}, "-j 0"},
		{[]string{"-j", "-4"}, "-j -4"},
		{[]string{"-retries", "-1"}, "-retries"},
		{[]string{"-stage-timeout", "-1s"}, "-stage-timeout"},
		{[]string{"-cache-verify"}, "-cache-verify requires -cache"},
		{[]string{"-resume"}, "-resume requires -cache"},
		{[]string{"-chaos", "not-a-plan"}, "-chaos"},
		{[]string{"-metrics", "xml"}, "-metrics"},
		{[]string{"-remote-store", "http://store:9000"}, "-remote-store requires -cache"},
		{[]string{"-remote-connect-timeout", "-1s"}, "-remote-connect-timeout"},
		{[]string{"-remote-timeout", "0s"}, "-remote-timeout"},
	}
	for _, tc := range cases {
		f := parse(t, tc.args...)
		err := f.Validate()
		if err == nil {
			t.Errorf("%q: Validate accepted invalid flags", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.args, err, tc.want)
		}
		if _, err := f.Options(); err == nil {
			t.Errorf("%q: Options must propagate the validation error", tc.args)
		}
	}
}

// TestDefaultJobsValid: -j defaults to 0 meaning "all cores"; only an
// explicitly passed non-positive value is an error.
func TestDefaultJobsValid(t *testing.T) {
	f := parse(t)
	if err := f.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 0 {
		t.Errorf("defaults built %d options, want none", len(opts))
	}
}

// TestOptionsBuilt: every set flag must contribute its engine option.
func TestOptionsBuilt(t *testing.T) {
	f := parse(t,
		"-j", "2", "-cache", t.TempDir(), "-cache-verify", "-resume",
		"-retries", "3", "-keep-going", "-stage-timeout", "5s",
		"-chaos", "7:core.measure/sha/*=error",
		"-remote-store", "http://store:9000")
	opts, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	// parallelism, cache, cache-verify, keep-going, resume, retry,
	// stage-timeout, fault injector, remote store
	if len(opts) != 9 {
		t.Errorf("built %d options, want 9", len(opts))
	}
}

// TestRemoteClient: the remote-tier client carries the split
// connect/response timeouts (no overall timeout — long polls must
// survive), and a -chaos plan arms the network boundary by wrapping the
// transport in a faultinject.Transport with the caller's peer scope.
func TestRemoteClient(t *testing.T) {
	f := parse(t, "-remote-connect-timeout", "1s", "-remote-timeout", "2s")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	hc := f.RemoteClient("")
	if hc.Timeout != 0 {
		t.Errorf("overall client timeout %s; must be 0 so long polls survive", hc.Timeout)
	}
	if _, ok := hc.Transport.(*faultinject.Transport); ok {
		t.Error("transport chaos-wrapped without a -chaos plan")
	}

	f = parse(t, "-chaos", "7:fabric.report/w-1=error")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, ok := f.RemoteClient("w-1").Transport.(*faultinject.Transport)
	if !ok {
		t.Fatal("a -chaos plan must wrap the remote client in a faultinject.Transport")
	}
	if tr.Peer != "w-1" || tr.Injector != f.Injector() {
		t.Errorf("transport wiring: peer %q injector match %v", tr.Peer, tr.Injector == f.Injector())
	}
}

// TestMetricsRegistry: a registry exists exactly when -metrics is set, and
// EmitMetrics honors the mode and the stdout destination.
func TestMetricsRegistry(t *testing.T) {
	if f := parse(t); f.MetricsRegistry() != nil {
		t.Error("registry without -metrics")
	}

	f := parse(t, "-metrics", "json")
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	reg := f.MetricsRegistry()
	if reg == nil {
		t.Fatal("no registry with -metrics json")
	}
	var buf bytes.Buffer
	if err := f.EmitMetrics(reg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(buf.String()), "{") {
		t.Errorf("json mode emitted %q", buf.String())
	}

	if err := f.EmitMetrics(nil, &buf); err != nil {
		t.Errorf("nil registry must be a no-op, got %v", err)
	}
}
