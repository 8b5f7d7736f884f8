package chaos

import (
	"errors"
	"testing"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

// TestHardenedStopsOnSpentQuota: a hidden.DB whose QueryLimit is spent
// answers hidden.ErrQuotaExhausted, which never refills; Harden's retry
// loop gives up after that one attempt instead of backing off.
func TestHardenedStopsOnSpentQuota(t *testing.T) {
	db := testDB(t, 40, 2, 20, 3)
	db.SetQueryLimit(3)
	h := Harden(db, retry.Policy{}, 1)
	for i := 0; i < 3; i++ {
		if _, err := h.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5 + i}}); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
	}
	t0 := time.Now()
	_, err := h.Query(query.Q{{Attr: 0, Op: query.LT, Value: 9}})
	if elapsed := time.Since(t0); elapsed >= retry.DefaultBaseBackoff/2 {
		t.Fatalf("4th query took %v; a spent quota must not wait out a backoff", elapsed)
	}
	if !errors.Is(err, hidden.ErrRateLimited) || !errors.Is(err, hidden.ErrQuotaExhausted) {
		t.Fatalf("4th query: %v, want a spent-quota rate limit", err)
	}
	if r := h.Retries(); r != 0 {
		t.Fatalf("retried a spent quota %d times", r)
	}
}
