package provesvc

import (
	"flag"
	"strings"
	"unicode"
)

// Flags registers on fs every command-line flag that shapes a Service:
// its name, its usage and its default, which it reads from the same
// table New starts from. Call the returned function after fs.Parse for
// the Options to pass to New; with no flags set they resolve to what
// New() resolves to, bar the clock-drawn seed. zkserve registers these
// on its command line, and zkload -inproc parses its -serve-flags string
// with them.
//
// Zero means "off" throughout: -verify-coalesce-window 0 leaves single
// verifies uncoalesced, and an empty -artifact-dir or -job-journal-dir
// keeps setup artifacts or async jobs in memory only. A non-positive
// -workers, -queue, -threads or -max-body means the default.
func Flags(fs *flag.FlagSet) func() []Option {
	def := defaultConfig()
	workers := fs.Int("workers", def.workers, "concurrent proving workers")
	queue := fs.Int("queue", def.queueDepth, "job queue depth (beyond this, requests get 429)")
	threads := fs.Int("threads", def.proveThreads, "engine threads inside one prove/setup")
	timeout := fs.Duration("timeout", def.defaultTimeout, "default per-job deadline (0 disables)")
	maxTimeout := fs.Duration("max-timeout", def.maxTimeout, "ceiling on per-request timeout_ms overrides (0: no ceiling)")
	seed := fs.Uint64("seed", def.seed, "RNG seed (pin for reproducible runs)")
	backends := fs.String("backends", "", "comma-separated proving backends to serve (default: all)")
	artifactDir := fs.String("artifact-dir", def.artifactDir, "directory for crash-safe setup-artifact persistence (empty disables)")
	maxBody := fs.Int64("max-body", def.maxBodyBytes, "request body size limit in bytes for /v1 prove and verify")
	breakerN := fs.Int("breaker-threshold", def.brkThreshold, "consecutive per-circuit failures that open its breaker (0 disables)")
	breakerCool := fs.Duration("breaker-cooldown", def.brkCooldown, "breaker open-state cooldown before a probe is admitted")
	jobTTL := fs.Duration("job-ttl", def.jobTTL, "retention of finished async jobs (/v1/jobs) before eviction")
	jobMax := fs.Int("job-max", def.jobMaxActive, "cap on queued+running async jobs (beyond this, submits get 429)")
	jobJournalDir := fs.String("job-journal-dir", def.jobJournalDir, "directory for the crash-safe async job journal: accepted jobs survive and replay across restarts (empty disables)")
	verifyWindow := fs.Duration("verify-coalesce-window", def.verifyWindow, "max wait to coalesce concurrent single verifies of one circuit into a batched pairing check (0 disables)")
	verifyMax := fs.Int("verify-coalesce-max", def.verifyMax, "flush a coalesced verify group once it holds this many requests")
	schedOn := fs.Bool("sched", def.sched.Enabled, "workload-aware scheduling: dedicated workers for hot circuits plus a dynamic intra/inter-job thread split")
	schedBudget := fs.Int("sched-budget", def.sched.ThreadBudget, "kernel thread budget the scheduler splits across in-flight jobs (0: GOMAXPROCS)")
	schedHotRate := fs.Float64("sched-hot-rate", def.sched.HotMinRate, "decayed arrival rate (req/s) at which a circuit is classified hot")
	schedMaxHot := fs.Int("sched-max-hot", def.sched.MaxHot, "cap on simultaneously hot circuits (0: as many as the pool can reserve for)")
	schedReserve := fs.Int("sched-reserve", def.sched.ReservePerHot, "dedicated workers per hot circuit")
	telemetryOn := fs.Bool("telemetry", def.tel != nil, "always-on telemetry (stage/kernel metrics at /v1/metrics)")

	return func() []Option {
		names := strings.FieldsFunc(*backends, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		opts := []Option{
			WithWorkers(*workers),
			WithQueueDepth(*queue),
			WithProveThreads(*threads),
			WithDefaultTimeout(*timeout),
			WithMaxTimeout(*maxTimeout),
			WithSeed(*seed),
			WithBackends(names...),
			WithArtifactDir(*artifactDir),
			WithMaxBodyBytes(*maxBody),
			WithBreaker(*breakerN, *breakerCool),
			WithJobTTL(*jobTTL),
			WithJobMaxActive(*jobMax),
			WithJobJournal(*jobJournalDir),
			WithVerifyCoalesce(*verifyWindow, *verifyMax),
			WithWorkloadSched(WorkloadConfig{
				Enabled:       *schedOn,
				ThreadBudget:  *schedBudget,
				HotMinRate:    *schedHotRate,
				MaxHot:        *schedMaxHot,
				ReservePerHot: *schedReserve,
			}),
		}
		if !*telemetryOn {
			opts = append(opts, WithTelemetry(nil))
		}
		return opts
	}
}
