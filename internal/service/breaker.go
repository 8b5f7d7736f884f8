package service

import (
	"sync"
	"time"

	"hiddensky/internal/retry"
)

// circuitState is a store circuit's position, exported numerically
// through the circuit_state{store=...} gauge.
type circuitState int

const (
	circuitClosed   circuitState = 0 // store healthy, jobs run normally
	circuitHalfOpen circuitState = 1 // cooldown over: probes allowed through
	circuitOpen     circuitState = 2 // store failing: runs park without querying
)

func (s circuitState) String() string {
	switch s {
	case circuitHalfOpen:
		return "half-open"
	case circuitOpen:
		return "open"
	}
	return "closed"
}

// breakerEscalationCap bounds how far consecutive opens double the
// cooldown past its base (2^5 = 32x).
const breakerEscalationCap = 5

// breaker is a per-store circuit breaker over job outcomes. Every
// upstream-failure ending (rate limited, transiently unavailable)
// counts against the store; threshold consecutive failures open the
// circuit and further runs against the store park without spending a
// single upstream query. Once the cooldown elapses the circuit turns
// half-open and lets probe runs through: a success closes it, another
// failure re-opens it with a doubled cooldown (capped). All methods
// take the clock as an argument, so tests drive the lifecycle with
// synthetic times.
type breaker struct {
	threshold int
	cooldown  retry.Policy // the n-th consecutive open lasts cooldown.Backoff(n)

	mu       sync.Mutex
	state    circuitState
	failures int       // consecutive upstream failures since the last success
	trips    int       // consecutive opens without an intervening success
	until    time.Time // while open: when the cooldown ends
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: retry.Policy{BaseBackoff: cooldown,
		MaxBackoff: cooldown << breakerEscalationCap, Multiplier: 2, NoJitter: true}}
}

// allow reports whether a run against the store may proceed. While the
// circuit is open and cooling it returns false with the remaining
// cooldown; once the cooldown has elapsed the circuit moves to
// half-open and the run goes through as a probe.
func (b *breaker) allow(now time.Time) (bool, time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == circuitOpen {
		if now.Before(b.until) {
			return false, b.until.Sub(now)
		}
		b.state = circuitHalfOpen
	}
	return true, 0
}

// onSuccess closes the circuit and resets the escalation.
func (b *breaker) onSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.state = circuitClosed
	b.failures = 0
	b.trips = 0
	b.until = time.Time{}
	b.mu.Unlock()
}

// onFailure records one upstream-failure job ending. A half-open
// probe failure re-opens immediately; in the closed state the
// threshold-th consecutive failure opens. Each consecutive open
// doubles the cooldown up to the escalation cap. Returns the cooldown
// when this call opened the circuit, 0 otherwise.
func (b *breaker) onFailure(now time.Time) time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.state != circuitHalfOpen && b.failures < b.threshold {
		return 0
	}
	d := b.cooldown.Backoff(b.trips+1, 0, nil)
	b.trips++
	b.failures = 0
	b.state = circuitOpen
	b.until = now.Add(d)
	return d
}

// stateAt reports the effective state without mutating it: an open
// circuit whose cooldown has elapsed reads as half-open.
func (b *breaker) stateAt(now time.Time) circuitState {
	if b == nil {
		return circuitClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == circuitOpen && !now.Before(b.until) {
		return circuitHalfOpen
	}
	return b.state
}
