// Package retry holds the one retry loop and the one delay schedule used
// by every consumer of a hostile upstream: exponential backoff with
// optional jitter, a hard attempt cap, per-attempt timeouts, and
// first-class handling of server Retry-After hints. Policy.Do is the loop
// both the HTTP client (web.Client) and the in-process hardening wrapper
// (chaos.Harden) run; Policy.Backoff also schedules the service's
// park-and-retry and circuit-breaker delays, so tests can assert exact
// schedules in one place. It sits below web, chaos and service and
// imports only hidden, for the rate-limit sentinel it retries.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hiddensky/internal/hidden"
)

// ErrUnavailable marks a transient upstream failure — a 5xx answer, a
// connection reset, a truncated body, a per-attempt timeout. It is the
// transient sibling of hidden.ErrRateLimited: both are recoverable by
// waiting and retrying, but only rate limits carry the anytime-budget
// semantics the discovery algorithms understand. Errors that wrap
// ErrUnavailable are safe to retry because the upstream never answered;
// no state changed.
var ErrUnavailable = errors.New("upstream transiently unavailable")

// AfterHinter is implemented by errors that carry a server-suggested
// wait (an injected chaos fault, a parsed Retry-After header). Policy
// backoff always honors the hint, capped by RetryAfterCap.
type AfterHinter interface {
	RetryAfterHint() time.Duration
}

// AfterHint extracts a Retry-After hint from err's chain (0 when absent).
func AfterHint(err error) time.Duration {
	var h AfterHinter
	if errors.As(err, &h) {
		return h.RetryAfterHint()
	}
	return 0
}

// Defaults for zero-valued Policy fields.
const (
	DefaultAttempts      = 4
	DefaultBaseBackoff   = 250 * time.Millisecond
	DefaultMaxBackoff    = 5 * time.Second
	DefaultMultiplier    = 2.0
	DefaultJitter        = 0.2
	DefaultRetryAfterCap = 5 * time.Second
)

// Policy describes how a consumer retries transient upstream failures.
// The zero value means "use every default"; individual fields can be
// overridden independently. A Policy is an immutable value — share it
// freely across goroutines.
type Policy struct {
	// Attempts is the total number of tries (first attempt included).
	// 1 disables retries entirely; <= 0 means DefaultAttempts.
	Attempts int
	// BaseBackoff is the wait after the first failed attempt
	// (<= 0: DefaultBaseBackoff).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (<= 0: DefaultMaxBackoff).
	MaxBackoff time.Duration
	// Multiplier is the exponential growth factor between attempts
	// (< 1: DefaultMultiplier).
	Multiplier float64
	// Jitter is the fraction of each computed backoff that is randomly
	// shaved off (0 <= Jitter <= 1), de-synchronizing client herds
	// without ever waiting longer than the deterministic schedule.
	// Negative means DefaultJitter; set NoJitter for exact waits.
	Jitter float64
	// NoJitter forces fully deterministic backoff (tests, reproducible
	// chaos runs) without fighting the zero-value-means-default rule.
	NoJitter bool
	// PerAttemptTimeout bounds each individual try (0 = unbounded).
	// Consumers apply it to the request context; a timeout counts as a
	// transient failure unless the parent context is done.
	PerAttemptTimeout time.Duration
	// RetryAfterCap caps how long a server-provided Retry-After hint is
	// honored, so a misbehaving upstream cannot stall discovery
	// (<= 0: DefaultRetryAfterCap).
	RetryAfterCap time.Duration
}

// Normalize returns p with every unset field replaced by its default.
func (p Policy) Normalize() Policy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultBaseBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = DefaultMultiplier
	}
	if p.NoJitter {
		p.Jitter = 0
	} else if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = DefaultJitter
	}
	if p.RetryAfterCap <= 0 {
		p.RetryAfterCap = DefaultRetryAfterCap
	}
	return p
}

// Backoff computes the wait after failed attempt number `attempt`
// (1-based) on a normalized policy. A positive retryAfter hint (from a
// Retry-After header or an AfterHinter error) always wins, capped at
// RetryAfterCap. Otherwise the wait is BaseBackoff·Multiplier^(attempt-1)
// capped at MaxBackoff, minus a random shave of up to Jitter·wait taken
// from rnd (may be nil when Jitter is 0). The jittered wait is therefore
// never longer than the deterministic schedule.
func (p Policy) Backoff(attempt int, retryAfter time.Duration, rnd func() float64) time.Duration {
	if retryAfter > 0 {
		if retryAfter > p.RetryAfterCap {
			return p.RetryAfterCap
		}
		return retryAfter
	}
	wait := float64(p.BaseBackoff)
	for i := 1; i < attempt; i++ {
		wait *= p.Multiplier
		if wait >= float64(p.MaxBackoff) {
			wait = float64(p.MaxBackoff)
			break
		}
	}
	if p.Jitter > 0 && rnd != nil {
		wait -= p.Jitter * wait * rnd()
	}
	d := time.Duration(wait)
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Transient reports whether err is a transient upstream failure:
// anything wrapping ErrUnavailable. Do also retries rate limits; this
// tells the two apart once the attempts are spent.
func Transient(err error) bool {
	return errors.Is(err, ErrUnavailable)
}

// Do runs try under p (normalized first) until it succeeds, fails with
// an error that is neither transient nor a rate limit
// (hidden.ErrRateLimited), fails with a spent quota
// (hidden.ErrQuotaExhausted, which never refills), or p.Attempts tries
// are spent. Between tries it waits p.Backoff(attempt, AfterHint(err),
// rnd) through Sleep, so a done ctx cuts the wait short. It returns the
// number of tries made and try's last error unchanged, or, when ctx
// ended a wait, an error wrapping the context's. Retrying is sound only
// because a failed try returned no data.
func (p Policy) Do(ctx context.Context, rnd func() float64, try func() error) (attempts int, err error) {
	p = p.Normalize()
	for attempts = 1; ; attempts++ {
		err = try()
		if err == nil || attempts >= p.Attempts || !retryable(err) {
			return attempts, err
		}
		if serr := Sleep(ctx, p.Backoff(attempts, AfterHint(err), rnd)); serr != nil {
			return attempts, fmt.Errorf("retry: aborted while backing off: %w", serr)
		}
	}
}

// retryable reports whether waiting may cure err: a transient failure
// or a rate limit, but not a spent quota.
func retryable(err error) bool {
	if errors.Is(err, hidden.ErrRateLimited) {
		return !errors.Is(err, hidden.ErrQuotaExhausted)
	}
	return Transient(err)
}

// Sleep waits for d or until ctx (when non-nil) is done, returning the
// context's error in the latter case.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
