package chaos

import (
	"net/http/httptest"
	"testing"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
	"hiddensky/internal/obs"
	"hiddensky/internal/retry"
	"hiddensky/internal/web"
)

// TestHardenedAndClientRetryParity: the in-process hardening wrapper and
// the HTTP client retry through the same loop under the same policy, so
// one counter-scheduled transient profile costs both paths the same
// retries and leaves discovery's skyline and counted queries identical.
func TestHardenedAndClientRetryParity(t *testing.T) {
	// Transient 503s and resets only: every fault is retried away and
	// the longest consecutive fault run (2) stays below Attempts.
	prof := Profile{Name: "parity", ErrorEvery: 7, ResetEvery: 11}
	pol := retry.Policy{Attempts: 4, BaseBackoff: 50 * time.Microsecond,
		MaxBackoff: 200 * time.Microsecond, Multiplier: 2, NoJitter: true}
	mk := mkTwin(105, 1000, 4, 60, 2, capsAll(4, hidden.RQ))
	req := core.Request{Algo: core.AlgoRQ}

	local := New(prof)
	h := Harden(local.Wrap(mk()), pol, 1)
	want, err := core.Run(h, req, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("hardened run: %v", err)
	}

	remote := New(prof)
	srv := httptest.NewServer(remote.Middleware(web.NewServer(mk(), nil)))
	defer srv.Close()
	c, err := web.Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := web.NewClientMetrics(obs.NewRegistry(), "parity")
	c.SetMetrics(m)
	c.SetRetryPolicy(pol)
	got, err := core.Run(c, req, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatalf("client run: %v", err)
	}

	sameSkyline(t, got.Skyline, want.Skyline)
	if got.Queries != want.Queries {
		t.Fatalf("client run counted %d queries, hardened run %d", got.Queries, want.Queries)
	}
	if h.Retries() == 0 {
		t.Fatal("no retries: the profile never fired, the parity proves nothing")
	}
	if r := m.Retries.Load(); r != h.Retries() {
		t.Fatalf("upstream_retries_total = %d, Hardened.Retries() = %d", r, h.Retries())
	}
	if local.Attempts() != remote.Attempts() {
		t.Fatalf("injector attempts: in-process %d, HTTP %d", local.Attempts(), remote.Attempts())
	}
}
