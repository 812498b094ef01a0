package provesvc

import (
	"sync"
	"sync/atomic"
	"time"
)

// The per-circuit breaker. A poisoned circuit — one whose proves panic,
// error, or blow their deadline every time — would otherwise burn a
// worker slot for minutes per attempt while the queue behind it starves.
// The breaker watches consecutive failures per (source, curve, backend)
// key and, once tripped, sheds that circuit's requests at admission with
// ErrCircuitOpen (retryable, HTTP 503) for the cooldown period. After the
// cooldown one probe request is admitted (half-open); its outcome decides
// between closing the breaker and re-opening it for another cooldown.
// Keys are independent: one poisoned circuit never sheds another.
//
// What counts as a failure: panics (ErrInternal), compile/witness/prove
// errors, and deadline expiries — everything except a pure client
// cancellation, which says nothing about the circuit's health.

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerState is the per-circuit state machine.
type breakerState struct {
	state       int
	consecutive int       // consecutive countable failures while closed
	openedAt    time.Time // when the breaker last tripped
	probing     bool      // a half-open probe is in flight
}

// breakerGroup holds the per-circuit breakers plus lifetime counters.
// The map is touched once per admission and once per completion — far
// off the prove hot path — so a plain mutex is fine.
type breakerGroup struct {
	threshold int // consecutive failures that trip the breaker; <1 disables
	cooldown  time.Duration

	mu     sync.Mutex
	states map[CircuitKey]*breakerState

	trips atomic.Uint64 // closed→open and half-open→open transitions
	shed  atomic.Uint64 // requests rejected with ErrCircuitOpen
}

func newBreakerGroup(threshold int, cooldown time.Duration) *breakerGroup {
	return &breakerGroup{
		threshold: threshold,
		cooldown:  cooldown,
		states:    map[CircuitKey]*breakerState{},
	}
}

func (g *breakerGroup) enabled() bool { return g.threshold > 0 }

// allow decides admission for one request. It returns false when the
// circuit's breaker is open (or a half-open probe is already in flight);
// the caller sheds with ErrCircuitOpen.
func (g *breakerGroup) allow(key CircuitKey) bool {
	if !g.enabled() {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.states[key]
	if st == nil {
		return true // closed, never failed
	}
	switch st.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(st.openedAt) < g.cooldown {
			g.shed.Add(1)
			return false
		}
		// Cooldown over: go half-open and admit this request as the probe.
		st.state = breakerHalfOpen
		st.probing = true
		return true
	default: // breakerHalfOpen
		if st.probing {
			g.shed.Add(1)
			return false
		}
		st.probing = true
		return true
	}
}

// onSuccess records a completed prove: the circuit is healthy, so any
// breaker state for it resets to closed.
func (g *breakerGroup) onSuccess(key CircuitKey) {
	if !g.enabled() {
		return
	}
	g.mu.Lock()
	delete(g.states, key)
	g.mu.Unlock()
}

// onFailure records a countable failure and reports whether this failure
// tripped the breaker (for the trip counter/metric).
func (g *breakerGroup) onFailure(key CircuitKey) (tripped bool) {
	if !g.enabled() {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.states[key]
	if st == nil {
		st = &breakerState{}
		g.states[key] = st
	}
	switch st.state {
	case breakerHalfOpen:
		// The probe failed: back to open for another cooldown.
		st.state = breakerOpen
		st.openedAt = time.Now()
		st.probing = false
		st.consecutive = 0
		g.trips.Add(1)
		return true
	case breakerOpen:
		// A request admitted before the trip finishing late; stays open.
		return false
	default:
		st.consecutive++
		if st.consecutive >= g.threshold {
			st.state = breakerOpen
			st.openedAt = time.Now()
			g.trips.Add(1)
			return true
		}
		return false
	}
}

// release returns an admission without a verdict: the admitted request
// produced no evidence about the circuit's health — a pure client
// cancellation, a deadline that expired before any work ran, or a
// rejection/drop after allow() but before execution (queue full,
// draining, drained on shutdown). Every allow() that does not reach
// onSuccess/onFailure MUST be released, otherwise a half-open probe
// slot leaks and the circuit sheds forever. The breaker neither closes
// nor re-trips; the next request may probe again.
func (g *breakerGroup) release(key CircuitKey) {
	if !g.enabled() {
		return
	}
	g.mu.Lock()
	if st := g.states[key]; st != nil && st.state == breakerHalfOpen {
		st.probing = false
	}
	g.mu.Unlock()
}

// openCount returns how many circuits are currently shedding (open or
// mid-probe half-open).
func (g *breakerGroup) openCount() int {
	if !g.enabled() {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, st := range g.states {
		if st.state != breakerClosed {
			n++
		}
	}
	return n
}

// BreakerStats is the `breaker` block of /v1/stats.
type BreakerStats struct {
	// Enabled is false when the breaker was disabled with WithBreaker(0, …).
	Enabled bool `json:"enabled"`
	// Threshold is the consecutive-failure trip point.
	Threshold int `json:"threshold"`
	// CooldownMs is the open-state cooldown before a probe is admitted.
	CooldownMs float64 `json:"cooldown_ms"`
	// Open is the number of circuits currently shedding load.
	Open int `json:"open"`
	// Trips counts lifetime closed→open and half-open→open transitions.
	Trips uint64 `json:"trips"`
	// Shed counts requests rejected with circuit_open.
	Shed uint64 `json:"shed"`
}

func (g *breakerGroup) stats() BreakerStats {
	return BreakerStats{
		Enabled:    g.enabled(),
		Threshold:  g.threshold,
		CooldownMs: float64(g.cooldown) / 1e6,
		Open:       g.openCount(),
		Trips:      g.trips.Load(),
		Shed:       g.shed.Load(),
	}
}
