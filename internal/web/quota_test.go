package web

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

// TestSpentQuotaStopsWithoutRetrying: a spent QueryLimit never refills,
// so the server answers 429 with "exhausted": true and no Retry-After,
// and a client under the default retry policy stops after one attempt
// instead of sleeping out its retries.
func TestSpentQuotaStopsWithoutRetrying(t *testing.T) {
	ts := httptest.NewServer(NewServer(testDB(t, 40, 2, 20, 3, capsAll(2, hidden.RQ), 3), nil))
	defer ts.Close()
	c, err := Dial(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Query(query.Q{{Attr: 0, Op: query.LT, Value: 5 + i}}); err != nil {
			t.Fatalf("query %d: %v", i+1, err)
		}
	}
	t0 := time.Now()
	_, err = c.Query(query.Q{{Attr: 0, Op: query.LT, Value: 9}})
	elapsed := time.Since(t0)
	if !errors.Is(err, hidden.ErrRateLimited) || !errors.Is(err, hidden.ErrQuotaExhausted) {
		t.Fatalf("4th query: %v, want a spent-quota rate limit", err)
	}
	var rle *RateLimitError
	if !errors.As(err, &rle) || rle.Attempts != 1 || !rle.Exhausted {
		t.Fatalf("4th query: %#v, want one attempt on an exhausted quota", rle)
	}
	if elapsed >= retry.DefaultBaseBackoff/2 {
		t.Fatalf("4th query took %v; a spent quota must not wait out a backoff", elapsed)
	}

	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(`{"preds":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env struct {
		Error     string `json:"error"`
		Exhausted bool   `json:"exhausted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "" || !env.Exhausted || env.Error == "" {
		t.Fatalf("status %d, Retry-After %q, envelope %+v", resp.StatusCode, resp.Header.Get("Retry-After"), env)
	}
}

// TestTrailingBytesAreMalformed: the search body must be one JSON value;
// bytes after it other than whitespace answer 400 (json.Decoder used to
// ignore them).
func TestTrailingBytesAreMalformed(t *testing.T) {
	ts := httptest.NewServer(NewServer(testDB(t, 40, 2, 20, 3, capsAll(2, hidden.RQ), 0), nil))
	defer ts.Close()
	for body, want := range map[string]int{
		`{"preds":[]}` + "\n\t ": http.StatusOK,
		`{"preds":[]}{}`:         http.StatusBadRequest,
		`{"preds":[]} x`:         http.StatusBadRequest,
	} {
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("body %q: status %d, want %d", body, resp.StatusCode, want)
		}
	}
}
