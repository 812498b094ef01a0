// Package faultinject is a deterministic fault-injection harness for the
// serving stack. The proving pipeline is long-running and stateful —
// minutes-scale jobs, cached setup artifacts worth minutes of compute —
// so its failure paths (a panicking kernel, a process killed mid-write,
// a corrupt artifact on disk) are exactly the paths ordinary tests never
// reach. This package gives those paths names.
//
// Production code marks each interesting site with a named Point:
//
//	if err := faultinject.Point(ctx, faultinject.PointBackendProve); err != nil {
//	    return err
//	}
//
// When nothing is armed a Point is one atomic load plus (when a context
// is supplied) one context lookup — cheap enough to leave in release
// builds, which is the point: the exact binary that serves traffic is the
// one whose failure paths were exercised.
//
// Faults are armed either globally (Arm / Reset — used by tests and by
// zkserve's hidden -fault-inject flag) or per-context (WithFault — used
// to poison a single request). A Fault fires as a returned error, a
// panic, a delay, or a partial write (via LimitWriter at sites that
// persist bytes), optionally skipping the first After hits and firing at
// most Count times.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by an armed KindError or
// KindPartialWrite fault. Tests assert on it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind selects what an armed fault does when its Point is hit.
type Kind int

const (
	// KindError makes Point return Err (ErrInjected when nil).
	KindError Kind = iota
	// KindPanic makes Point panic — the harness for testing panic
	// isolation in worker pools.
	KindPanic
	// KindDelay makes Point sleep for Delay (honoring ctx cancellation),
	// then proceed normally — the harness for deadline/timeout paths.
	KindDelay
	// KindPartialWrite makes LimitWriter at the same point truncate the
	// stream after Bytes bytes and fail with Err — the harness for
	// kill-between-write and torn-write persistence faults. Point itself
	// treats it as a no-op so the write path runs into the truncation.
	KindPartialWrite
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindPartialWrite:
		return "partial"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault describes one armed failure.
type Fault struct {
	Kind  Kind
	Err   error         // KindError/KindPartialWrite payload (nil → ErrInjected)
	Delay time.Duration // KindDelay sleep
	Bytes int64         // KindPartialWrite: bytes written before failing
	After int           // skip the first After hits of the point
	Count int           // fire at most Count times (0 → every hit)
}

// state is one armed fault plus its hit accounting. Arm and WithFault
// hand out *state so the countdown is shared by everyone holding it.
type state struct {
	f     Fault
	hits  atomic.Int64
	fired atomic.Int64
}

// shouldFire consumes one hit and reports whether the fault fires on it.
func (st *state) shouldFire() bool {
	h := st.hits.Add(1)
	if h <= int64(st.f.After) {
		return false
	}
	if st.f.Count > 0 && st.fired.Load() >= int64(st.f.Count) {
		return false
	}
	st.fired.Add(1)
	return true
}

func (st *state) err() error {
	if st.f.Err != nil {
		return st.f.Err
	}
	return ErrInjected
}

// The global registry. armedCount gates the fast path: when zero, Point
// only pays the atomic load (plus the context probe when ctx is non-nil).
var (
	mu         sync.Mutex
	registry   = map[string]*state{}
	armedCount atomic.Int64
)

// Arm installs a global fault at the named point and returns its disarm
// function. Re-arming a point replaces the previous fault.
func Arm(name string, f Fault) (disarm func()) {
	mu.Lock()
	if _, ok := registry[name]; !ok {
		armedCount.Add(1)
	}
	st := &state{f: f}
	registry[name] = st
	mu.Unlock()
	return func() {
		mu.Lock()
		if registry[name] == st {
			delete(registry, name)
			armedCount.Add(-1)
		}
		mu.Unlock()
	}
}

// Reset disarms every globally armed fault (context-armed faults die
// with their context).
func Reset() {
	mu.Lock()
	for name := range registry {
		delete(registry, name)
		armedCount.Add(-1)
	}
	mu.Unlock()
}

// Armed reports whether any global fault is armed — callers that want to
// log loudly when running with injection enabled (zkserve does) check it
// once at startup.
func Armed() bool { return armedCount.Load() > 0 }

// ctxKey indexes the context fault map.
type ctxKey struct{}

// WithFault returns a context carrying an armed fault for the named
// point. Context faults shadow global ones at the same point and travel
// with the request — arming a fault on one job's context poisons only
// that job.
func WithFault(ctx context.Context, name string, f Fault) context.Context {
	m := map[string]*state{}
	if prev, ok := ctx.Value(ctxKey{}).(map[string]*state); ok {
		for k, v := range prev {
			m[k] = v
		}
	}
	m[name] = &state{f: f}
	return context.WithValue(ctx, ctxKey{}, m)
}

// lookup resolves the armed fault for name: context first, then global.
func lookup(ctx context.Context, name string) *state {
	if ctx != nil {
		if m, ok := ctx.Value(ctxKey{}).(map[string]*state); ok {
			if st, ok := m[name]; ok {
				return st
			}
		}
	}
	if armedCount.Load() == 0 {
		return nil
	}
	mu.Lock()
	st := registry[name]
	mu.Unlock()
	return st
}

// Point is the injection site marker. It returns nil (fast) when nothing
// is armed for name; otherwise it performs the armed fault: returns its
// error, panics, or sleeps. KindPartialWrite is a no-op here — it acts
// through LimitWriter on the write path instead. ctx may be nil at sites
// with no request context.
func Point(ctx context.Context, name string) error {
	st := lookup(ctx, name)
	if st == nil || !st.shouldFire() {
		return nil
	}
	switch st.f.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faultinject: armed panic at %q", name))
	case KindDelay:
		if ctx == nil {
			time.Sleep(st.f.Delay)
			return nil
		}
		t := time.NewTimer(st.f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case KindError:
		return st.err()
	default: // KindPartialWrite: handled by LimitWriter
		return nil
	}
}

// limitWriter truncates after n bytes, then fails every write.
type limitWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (lw *limitWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, lw.err
	}
	if int64(len(p)) <= lw.n {
		lw.n -= int64(len(p))
		return lw.w.Write(p)
	}
	n, err := lw.w.Write(p[:lw.n])
	lw.n = 0
	if err != nil {
		return n, err
	}
	return n, lw.err
}

// LimitWriter wraps w with the partial-write fault armed at name, if
// any: writes succeed until the fault's byte budget is exhausted, then
// fail with its error — the moral equivalent of the process dying with
// the file half-written. With no partial-write fault armed it returns w
// unchanged.
func LimitWriter(ctx context.Context, name string, w io.Writer) io.Writer {
	st := lookup(ctx, name)
	if st == nil || st.f.Kind != KindPartialWrite || !st.shouldFire() {
		return w
	}
	return &limitWriter{w: w, n: st.f.Bytes, err: st.err()}
}

// Injection point names used across the serving stack. Keeping them here
// (rather than scattered string literals) makes `zkserve -fault-inject`
// discoverable and typo-proof.
const (
	// PointWorkerRun fires at the top of every job execution on a worker.
	PointWorkerRun = "worker.run"
	// PointBackendSetup fires in the registry build just before the
	// backend's (trusted) setup runs.
	PointBackendSetup = "backend.setup"
	// PointBackendProve fires on the worker just before the backend
	// proves a solved witness.
	PointBackendProve = "backend.prove"
	// PointArtifactWrite governs the artifact store's payload write
	// (partial-write faults truncate the temp file here).
	PointArtifactWrite = "artifact.write"
	// PointArtifactRename fires between the temp-file write and the
	// atomic rename — the kill-between-write window.
	PointArtifactRename = "artifact.rename"
	// PointArtifactLoad fires while decoding an artifact read from disk.
	PointArtifactLoad = "artifact.load"
	// PointTableWrite, PointTableRename and PointTableLoad are the
	// fixed-base table store's analogues of the artifact points: partial
	// writes truncate the temp file, rename faults hit the
	// kill-between-write window, load faults fire while decoding.
	PointTableWrite  = "table.write"
	PointTableRename = "table.rename"
	PointTableLoad   = "table.load"
	// PointHTTPProve and PointHTTPVerify fire at the top of the /v1
	// prove (and batch) and verify handlers.
	PointHTTPProve  = "http.prove"
	PointHTTPVerify = "http.verify"
	// PointJournalAppend governs the job journal's WAL appends
	// (partial-write faults tear a record mid-frame here).
	PointJournalAppend = "jobs.journal.append"
	// PointJournalReplay fires at the top of startup WAL replay.
	PointJournalReplay = "jobs.journal.replay"
	// PointJournalCompact fires before the journal's compaction rewrite.
	PointJournalCompact = "jobs.journal.compact"
	// PointDirSync fires at every directory fsync (durable.SyncDir):
	// after an artifact, table or compaction rename, and after the WAL's
	// first-boot creation.
	PointDirSync = "durable.syncdir"
)

// Points lists the known injection point names, sorted.
func Points() []string {
	out := []string{
		PointWorkerRun, PointBackendSetup, PointBackendProve,
		PointArtifactWrite, PointArtifactRename, PointArtifactLoad,
		PointTableWrite, PointTableRename, PointTableLoad,
		PointHTTPProve, PointHTTPVerify,
		PointJournalAppend, PointJournalReplay, PointJournalCompact,
		PointDirSync,
	}
	sort.Strings(out)
	return out
}

// ParseSpec parses a comma-separated arming spec — the format of
// zkserve's hidden -fault-inject flag — and arms each fault globally,
// returning one disarm function for the lot:
//
//	point=kind[:arg][@count]
//
//	worker.run=panic            panic on every job
//	backend.prove=error@2       fail the first two proves with ErrInjected
//	backend.setup=delay:250ms   sleep 250ms before each setup
//	artifact.write=partial:64   truncate artifact writes after 64 bytes
func ParseSpec(spec string) (disarm func(), err error) {
	var disarms []func()
	undo := func() {
		for _, d := range disarms {
			d()
		}
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			undo()
			return nil, fmt.Errorf("faultinject: malformed spec %q (want point=kind[:arg][@count])", part)
		}
		var f Fault
		if kindStr, countStr, ok := strings.Cut(rest, "@"); ok {
			rest = kindStr
			if f.Count, err = strconv.Atoi(countStr); err != nil || f.Count < 1 {
				undo()
				return nil, fmt.Errorf("faultinject: bad count in %q", part)
			}
		}
		kindStr, arg, _ := strings.Cut(rest, ":")
		switch kindStr {
		case "error":
			f.Kind = KindError
		case "panic":
			f.Kind = KindPanic
		case "delay":
			f.Kind = KindDelay
			if f.Delay, err = time.ParseDuration(arg); err != nil {
				undo()
				return nil, fmt.Errorf("faultinject: bad delay in %q: %v", part, err)
			}
		case "partial":
			f.Kind = KindPartialWrite
			if f.Bytes, err = strconv.ParseInt(arg, 10, 64); err != nil || f.Bytes < 0 {
				undo()
				return nil, fmt.Errorf("faultinject: bad byte budget in %q", part)
			}
		default:
			undo()
			return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q (want error|panic|delay|partial)", kindStr, part)
		}
		disarms = append(disarms, Arm(name, f))
	}
	return undo, nil
}
