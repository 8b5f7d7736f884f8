package chaos

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

// Hardened retries transient faults from a hostile core.Interface with
// retry.Policy.Do — the loop web.Client runs over HTTP — sitting between
// core (which treats every Query error as terminal for the run) and a
// faulty upstream. Injected rate limits and transient faults are retried
// with backoff, honoring Retry-After hints up to the policy's
// RetryAfterCap; once the policy's attempts are spent the final error
// passes through unchanged, so errors.Is(err, hidden.ErrRateLimited)
// still reaches the anytime machinery.
type Hardened struct {
	inner  core.Interface
	policy retry.Policy

	mu  sync.Mutex
	rng *rand.Rand

	retries atomic.Int64
}

// Harden wraps db with p (normalized; zero value = defaults). The seed
// fixes the jitter stream so hardened runs are reproducible.
func Harden(db core.Interface, p retry.Policy, seed int64) *Hardened {
	if seed == 0 {
		seed = 1
	}
	return &Hardened{inner: db, policy: p.Normalize(), rng: rand.New(rand.NewSource(seed))}
}

// Retries reports the total number of retry waits taken.
func (h *Hardened) Retries() int64 { return h.retries.Load() }

func (h *Hardened) rnd() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rng.Float64()
}

// Query implements core.Interface with policy-driven retries. Retrying
// is sound because a failed attempt returned no data: the eventual
// answer is byte-identical to the one a clean upstream would have given,
// which is what keeps discovery's skyline and counted query total exact
// under every recoverable profile.
func (h *Hardened) Query(q query.Q) (res hidden.Result, err error) {
	attempts, err := h.policy.Do(context.TODO(), h.rnd, func() (err error) {
		res, err = h.inner.Query(q)
		return err
	})
	h.retries.Add(int64(attempts - 1))
	return res, err
}

// NumAttrs implements core.Interface.
func (h *Hardened) NumAttrs() int { return h.inner.NumAttrs() }

// K implements core.Interface.
func (h *Hardened) K() int { return h.inner.K() }

// Cap implements core.Interface.
func (h *Hardened) Cap(i int) hidden.Capability { return h.inner.Cap(i) }

// Domain implements core.Interface.
func (h *Hardened) Domain(i int) query.Interval { return h.inner.Domain(i) }
