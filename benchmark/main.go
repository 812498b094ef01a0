// Command benchmark is the repository's benchmark: closed-loop workloads
// over an in-process zkserve, checked for correctness, printing every
// metric of BENCHMARK.json by name and unit. See README.md.
//
//	go run -C benchmark . --workload prove_large --seed 1 --seconds 25 --trace 0
//	go run -C benchmark . -repeat 5 > suite.json      # all workloads, interleaved
//	go run -C benchmark . -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupRuns is how many cold processes set the workload up; setup_s is
// their median. Fixed-base tables and curve constants are cached
// process-wide, so only a fresh process pays what a restart pays.
const setupRuns = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (omit with -repeat to run all)")
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 25, "measuring time of one run")
	trace := fs.Int("trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 0, "run every workload this many times, interleaved, and print per-metric medians")
	compare := fs.Bool("compare", false, "compare two -repeat reports: -compare old.json new.json")
	setupOnly := fs.Bool("setup-only", false, "internal: set the workload up in this process, print the seconds it took, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(maxProcs())

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare old.json new.json")
			return 2
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *repeat > 0:
		return runSuite(*repeat, *seed, *seconds, *trace == 1, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads:")
		for _, w := range workloads {
			fmt.Fprintf(stderr, "  %-16s %s\n", w.Name, w.Why)
		}
		return 2
	}
	if *setupOnly {
		e, took, err := timedStart(w, *seed, nil)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		e.stop()
		fmt.Fprintln(stdout, took.Seconds())
		return 0
	}
	rep, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	// The full report (host, sample counts, set-up runs, notes) goes to
	// standard error; the contract's result is standard output's last line.
	full, _ := json.Marshal(rep) // plain numbers and strings: cannot fail
	fmt.Fprintln(stderr, string(full))
	line, _ := json.Marshal(rep.result)
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct || rep.Attempted == rep.Failed {
		return 1
	}
	return 0
}

func timedStart(w *workload, seed uint64, spans *spanLog) (*env, time.Duration, error) {
	_, end := spans.begin(0, "setup")
	defer end()
	t0 := time.Now()
	e, err := start(w, seed, spans)
	return e, time.Since(t0), err
}

// coldSetups times the workload's set-up in n fresh processes, one after
// another, before this process has allocated anything of its own.
func coldSetups(w *workload, seed uint64, n int, stderr io.Writer) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "-setup-only", "-workload", w.Name, "-seed", fmt.Sprint(seed))
		cmd.Stderr = stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		var s float64
		if _, err := fmt.Sscan(string(raw), &s); err != nil {
			return nil, fmt.Errorf("cold set-up %d printed %q", i, raw)
		}
		out = append(out, s)
	}
	return out, nil
}

// runWorkload is one contract run: set up, measure for d, check, report.
// An untraced run measures the end-to-end metrics over the whole of d. A
// traced run splits d: the window takes half, with every second request
// recording spans, and the layer replicas share the other half.
func runWorkload(w *workload, seed uint64, d time.Duration, traced bool, stderr io.Writer) (*report, error) {
	rep := newReport(w, seed, d, traced)
	var spans *spanLog
	var setups []float64
	if traced {
		spans = newSpanLog()
		d /= 2
	} else {
		var err error
		if setups, err = coldSetups(w, seed, setupRuns-1, stderr); err != nil {
			return nil, err
		}
	}
	e, took, err := timedStart(w, seed, spans)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	setups = append(setups, took.Seconds())

	var inputgen time.Duration
	if w.PoolSize > 0 {
		t0 := time.Now()
		if err := e.makePools(); err != nil {
			return nil, err
		}
		inputgen = time.Since(t0)
	}

	runtime.GC()
	debug.FreeOSMemory()
	_, end := spans.begin(0, "window")
	samples := e.window(len(w.Clients), d, traced, "window")
	end()
	stats, rss := e.svc.Stats(), peakRSSMiB()

	_, end = spans.begin(0, "check")
	tally := e.check(samples)
	end()
	clients := make([]clientStats, len(samples))
	for k := range samples {
		clients[k] = summarise(samples[k])
	}
	rep.Attempted, rep.Failed, rep.Correct, rep.Notes = tally.Attempted, tally.Failed, tally.Wrong == 0, tally.Notes
	rep.Samples = len(clients[0].LatencyMs)
	rep.SamplesBeyondTail = beyond(rep.Samples, w.TailPct)
	rep.TailMs = percentile(clients[0].LatencyMs, w.TailPct)
	if rep.SamplesBeyondTail < minBeyond {
		rep.Notes = append(rep.Notes, fmt.Sprintf("only %d of %d samples lie beyond p%g: the tail is not trustworthy in so short a run, read the p50 only",
			rep.SamplesBeyondTail, rep.Samples, w.TailPct))
	}
	rep.SetupRunsS = setups

	if !traced {
		rep.set(endToEnd, map[string]float64{
			"setup_s":        median(setups),
			"latency_p50_ms": percentile(clients[0].LatencyMs, 50),
			"proofs_per_s":   proofsPerSecond(clients),
			"peak_rss_mb":    rss,
		})
		return rep, nil
	}

	values := windowLayerMetrics(w, samples, clients, stats, inputgen)
	dir, cleanup, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	// Cheap replicas repeat for a slice sized so that all of them together
	// use about a tenth of the run; the expensive ones run a fixed number
	// of times and take the rest.
	layers, err := runLayers(spans, seed, d/250, dir)
	if err != nil {
		return nil, fmt.Errorf("layer replicas: %w", err)
	}
	for k, v := range layers {
		values[k] = v
	}
	rep.set(perLayer(), values)
	rep.SpansFile = filepath.Join("out", fmt.Sprintf("spans-%s-%d.json", w.Name, seed))
	if err := spans.write(rep.SpansFile); err != nil {
		return nil, err
	}
	return rep, nil
}
