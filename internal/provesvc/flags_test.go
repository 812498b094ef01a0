package provesvc

import (
	"flag"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zkperf/internal/telemetry"
)

// telOn stands in for "telemetry enabled" when resolved configurations
// are compared: every Service gets its own fresh handle.
var telOn = telemetry.New()

// resolved is the configuration New builds from opts, with the seed
// (time-derived unless pinned) and the telemetry handle masked, and an
// empty backend list (all backends) in one spelling.
func resolved(opts ...Option) config {
	c := newConfig(opts...)
	c.seed = 0
	if c.tel != nil {
		c.tel = telOn
	}
	if len(c.backends) == 0 {
		c.backends = nil
	}
	return c
}

// parseFlags registers Flags on a fresh set, parses args and resolves
// the Options it returns.
func parseFlags(t *testing.T, args ...string) config {
	t.Helper()
	fs := flag.NewFlagSet("zkserve", flag.ContinueOnError)
	options := Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return resolved(options()...)
}

// TestOneDefaultTable guards against the defaults drifting apart again:
// New with no options, zkserve's flags with none set, and the benchmark's
// hand-written service options must all resolve to one configuration.
func TestOneDefaultTable(t *testing.T) {
	lib := resolved()
	flags := parseFlags(t)
	// A literal copy of serviceOptions in benchmark/workloads.go (the
	// many-worker case). That module is frozen separately; this copy
	// fails here first if the two ever disagree.
	bench := resolved(
		WithWorkers(runtime.GOMAXPROCS(0)),
		WithQueueDepth(256),
		WithProveThreads(1),
		WithDefaultTimeout(60*time.Second),
		WithSeed(1),
		WithWorkloadSched(WorkloadConfig{Enabled: true, HotMinRate: 0.5, ReservePerHot: 1}),
	)
	if !reflect.DeepEqual(lib, flags) {
		t.Errorf("New() and Flags disagree:\n  New()  %+v\n  Flags  %+v", lib, flags)
	}
	if !reflect.DeepEqual(lib, bench) {
		t.Errorf("New() and the benchmark's options disagree:\n  New()      %+v\n  benchmark  %+v", lib, bench)
	}

	// The shipped configuration itself.
	if lib.queueDepth != 256 || lib.defaultTimeout != 60*time.Second || lib.proveThreads != 1 ||
		!lib.sched.Enabled || lib.sched.HotMinRate != 0.5 || lib.sched.ReservePerHot != 1 {
		t.Errorf("defaults = queue %d, timeout %v, threads %d, sched %+v; want queue 256, 60s, 1 thread, sched on at 0.5/s reserving 1",
			lib.queueDepth, lib.defaultTimeout, lib.proveThreads, lib.sched)
	}
	// A non-positive size means the default, not a smaller one.
	if got := parseFlags(t, "-queue", "0").queueDepth; got != 256 {
		t.Errorf("-queue 0 resolves to %d, want 256", got)
	}
	if got := parseFlags(t, "-telemetry=false").tel; got != nil {
		t.Error("-telemetry=false left telemetry on")
	}
	if got := parseFlags(t, "-backends", " plonk, ").backends; !reflect.DeepEqual(got, []string{"plonk"}) {
		t.Errorf("-backends ' plonk, ' = %q, want [plonk]", got)
	}
}

// TestFlagsPinned pins every service flag's name, usage and default, so
// any change to zkserve -help shows up here as a reviewed diff. The
// -workers default (GOMAXPROCS) and the -seed default (the clock) depend
// on the machine and the moment, and are masked.
func TestFlagsPinned(t *testing.T) {
	want := []struct{ name, usage, def string }{
		{"artifact-dir", "directory for crash-safe setup-artifact persistence (empty disables)", ""},
		{"backends", "comma-separated proving backends to serve (default: all)", ""},
		{"breaker-cooldown", "breaker open-state cooldown before a probe is admitted", "10s"},
		{"breaker-threshold", "consecutive per-circuit failures that open its breaker (0 disables)", "5"},
		{"job-journal-dir", "directory for the crash-safe async job journal: accepted jobs survive and replay across restarts (empty disables)", ""},
		{"job-max", "cap on queued+running async jobs (beyond this, submits get 429)", "1024"},
		{"job-ttl", "retention of finished async jobs (/v1/jobs) before eviction", "5m0s"},
		{"max-body", "request body size limit in bytes for /v1 prove and verify", "4194304"},
		{"max-timeout", "ceiling on per-request timeout_ms overrides (0: no ceiling)", "0s"},
		{"queue", "job queue depth (beyond this, requests get 429)", "256"},
		{"sched", "workload-aware scheduling: dedicated workers for hot circuits plus a dynamic intra/inter-job thread split", "true"},
		{"sched-budget", "kernel thread budget the scheduler splits across in-flight jobs (0: GOMAXPROCS)", "0"},
		{"sched-hot-rate", "decayed arrival rate (req/s) at which a circuit is classified hot", "0.5"},
		{"sched-max-hot", "cap on simultaneously hot circuits (0: as many as the pool can reserve for)", "0"},
		{"sched-reserve", "dedicated workers per hot circuit", "1"},
		{"seed", "RNG seed (pin for reproducible runs)", "<clock>"},
		{"telemetry", "always-on telemetry (stage/kernel metrics at /v1/metrics)", "true"},
		{"threads", "engine threads inside one prove/setup", "1"},
		{"timeout", "default per-job deadline (0 disables)", "1m0s"},
		{"verify-coalesce-max", "flush a coalesced verify group once it holds this many requests", "32"},
		{"verify-coalesce-window", "max wait to coalesce concurrent single verifies of one circuit into a batched pairing check (0 disables)", "0s"},
		{"workers", "concurrent proving workers", "<GOMAXPROCS>"},
	}
	fs := flag.NewFlagSet("zkserve", flag.ContinueOnError)
	Flags(fs)
	i := 0
	fs.VisitAll(func(f *flag.Flag) {
		def := f.DefValue
		switch f.Name {
		case "seed":
			def = "<clock>"
		case "workers":
			def = "<GOMAXPROCS>"
		}
		if i >= len(want) {
			t.Errorf("unpinned flag -%s (%q, default %q)", f.Name, f.Usage, def)
			return
		}
		if w := want[i]; f.Name != w.name || f.Usage != w.usage || def != w.def {
			t.Errorf("flag %d = -%s %q (default %q), want -%s %q (default %q)",
				i, f.Name, f.Usage, def, w.name, w.usage, w.def)
		}
		i++
	})
	if i < len(want) {
		t.Errorf("%d flags registered, %d pinned", i, len(want))
	}
}
