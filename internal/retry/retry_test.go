package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hiddensky/internal/hidden"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	p := Policy{}.Normalize()
	if p.Attempts != DefaultAttempts {
		t.Fatalf("Attempts = %d, want %d", p.Attempts, DefaultAttempts)
	}
	if p.BaseBackoff != DefaultBaseBackoff || p.MaxBackoff != DefaultMaxBackoff {
		t.Fatalf("backoff defaults wrong: %v / %v", p.BaseBackoff, p.MaxBackoff)
	}
	if p.Multiplier != DefaultMultiplier || p.Jitter != DefaultJitter {
		t.Fatalf("growth defaults wrong: %v / %v", p.Multiplier, p.Jitter)
	}
	if p.RetryAfterCap != DefaultRetryAfterCap {
		t.Fatalf("RetryAfterCap = %v", p.RetryAfterCap)
	}
}

func TestNormalizeKeepsExplicitValues(t *testing.T) {
	p := Policy{Attempts: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		Multiplier: 3, Jitter: 0.5, PerAttemptTimeout: time.Second, RetryAfterCap: time.Minute}.Normalize()
	if p.Attempts != 1 || p.BaseBackoff != time.Millisecond || p.MaxBackoff != 2*time.Millisecond ||
		p.Multiplier != 3 || p.Jitter != 0.5 || p.PerAttemptTimeout != time.Second || p.RetryAfterCap != time.Minute {
		t.Fatalf("explicit fields clobbered: %+v", p)
	}
}

func TestNormalizeNoJitter(t *testing.T) {
	p := Policy{NoJitter: true}.Normalize()
	if p.Jitter != 0 {
		t.Fatalf("NoJitter left Jitter = %v", p.Jitter)
	}
}

func TestBackoffExponentialSchedule(t *testing.T) {
	p := Policy{BaseBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		Multiplier: 2, NoJitter: true}.Normalize()
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		50 * time.Millisecond, 50 * time.Millisecond}
	for i, w := range want {
		if got := p.Backoff(i+1, 0, nil); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

func TestBackoffHonorsRetryAfter(t *testing.T) {
	p := Policy{BaseBackoff: time.Millisecond, RetryAfterCap: 2 * time.Second, NoJitter: true}.Normalize()
	if got := p.Backoff(1, 700*time.Millisecond, nil); got != 700*time.Millisecond {
		t.Fatalf("hint not honored: %v", got)
	}
	// A hint beyond the cap is clamped, not obeyed verbatim.
	if got := p.Backoff(3, time.Hour, nil); got != 2*time.Second {
		t.Fatalf("hint not capped: %v", got)
	}
}

func TestBackoffJitterOnlyShortens(t *testing.T) {
	p := Policy{BaseBackoff: 100 * time.Millisecond, Jitter: 0.5}.Normalize()
	rnd := func() float64 { return 1 } // worst-case shave
	if got := p.Backoff(1, 0, rnd); got != 50*time.Millisecond {
		t.Fatalf("full shave = %v, want 50ms", got)
	}
	rnd = func() float64 { return 0 }
	if got := p.Backoff(1, 0, rnd); got != 100*time.Millisecond {
		t.Fatalf("zero shave = %v, want 100ms", got)
	}
}

type hintedErr struct{ after time.Duration }

func (e *hintedErr) Error() string                 { return "hinted" }
func (e *hintedErr) Unwrap() error                 { return ErrUnavailable }
func (e *hintedErr) RetryAfterHint() time.Duration { return e.after }

func TestAfterHintWalksChain(t *testing.T) {
	base := &hintedErr{after: 3 * time.Second}
	wrapped := fmt.Errorf("outer: %w", base)
	if got := AfterHint(wrapped); got != 3*time.Second {
		t.Fatalf("AfterHint = %v", got)
	}
	if got := AfterHint(errors.New("plain")); got != 0 {
		t.Fatalf("AfterHint on plain error = %v", got)
	}
}

func TestTransient(t *testing.T) {
	if !Transient(fmt.Errorf("wrap: %w", ErrUnavailable)) {
		t.Fatal("wrapped ErrUnavailable not transient")
	}
	if Transient(errors.New("fatal")) {
		t.Fatal("plain error reported transient")
	}
}

func TestSleepRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep under cancelled ctx = %v", err)
	}
	if err := Sleep(nil, 0); err != nil {
		t.Fatalf("zero Sleep errored: %v", err)
	}
}

// rateLimited is a hinted rate limit, as web.RateLimitError and
// chaos.RateLimitedError are.
type rateLimited struct{ after time.Duration }

func (e *rateLimited) Error() string                 { return "rate limited" }
func (e *rateLimited) Unwrap() error                 { return hidden.ErrRateLimited }
func (e *rateLimited) RetryAfterHint() time.Duration { return e.after }

func TestDo(t *testing.T) {
	transient := fmt.Errorf("503: %w", ErrUnavailable)
	reset := fmt.Errorf("connection reset: %w", ErrUnavailable)
	fatal := errors.New("400 bad predicate")
	limited := &rateLimited{}
	pol := Policy{Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Multiplier: 2, NoJitter: true}
	for _, tc := range []struct {
		name         string
		pol          Policy
		errs         []error // try's answer per call; past the end: nil
		wantAttempts int
		wantErr      error
		minElapsed   time.Duration
	}{
		{"first attempt succeeds", pol, nil, 1, nil, 0},
		{"transient then success", pol, []error{transient}, 2, nil, time.Millisecond},
		{"rate limit retried", pol, []error{limited, limited}, 3, nil, 3 * time.Millisecond},
		{"fatal returns at once", pol, []error{fatal}, 1, fatal, 0},
		{"attempts spent", pol, []error{transient, limited, reset, nil}, 3, reset, 3 * time.Millisecond},
		{"hint beats computed wait", Policy{Attempts: 2, BaseBackoff: time.Microsecond, NoJitter: true},
			[]error{&rateLimited{after: 30 * time.Millisecond}}, 2, nil, 30 * time.Millisecond},
	} {
		calls := 0
		start := time.Now()
		attempts, err := tc.pol.Do(context.Background(), nil, func() error {
			calls++
			if calls <= len(tc.errs) {
				return tc.errs[calls-1]
			}
			return nil
		})
		elapsed := time.Since(start)
		if attempts != tc.wantAttempts || calls != tc.wantAttempts {
			t.Errorf("%s: attempts = %d (try called %d times), want %d", tc.name, attempts, calls, tc.wantAttempts)
		}
		if err != tc.wantErr {
			t.Errorf("%s: err = %v, want try's last error %v unchanged", tc.name, err, tc.wantErr)
		}
		if elapsed < tc.minElapsed {
			t.Errorf("%s: took %v, want the backoff schedule's %v", tc.name, elapsed, tc.minElapsed)
		}
	}
}

func TestDoCancelledDuringWait(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{Attempts: 3, BaseBackoff: time.Minute, NoJitter: true}
	start := time.Now()
	attempts, err := p.Do(ctx, nil, func() error {
		cancel()
		return ErrUnavailable
	})
	if !errors.Is(err, context.Canceled) || attempts != 1 {
		t.Fatalf("Do under a cancelled wait = (%d, %v), want (1, context.Canceled)", attempts, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; the backoff was slept out", elapsed)
	}
}
