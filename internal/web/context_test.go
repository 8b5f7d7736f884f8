package web

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/retry"
)

func metaHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, MetaResponse{
			K: 2,
			Attrs: []MetaAttr{
				{Name: "A0", Cap: "RQ", Lo: 0, Hi: 9},
				{Name: "A1", Cap: "RQ", Lo: 0, Hi: 9},
			},
		})
	}
}

// TestClientContextCancelDuringBackoff: a cancelled context interrupts
// the 429 backoff wait instead of sleeping it out.
func TestClientContextCancelDuringBackoff(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", metaHandler())
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	base, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	base.SetRetryPolicy(retry.Policy{BaseBackoff: 30 * time.Second, NoJitter: true})
	ctx, cancel := context.WithCancel(context.Background())
	c := base.WithContext(ctx)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Query(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the backoff was slept out", elapsed)
	}
}

// TestClientContextCancelMidRequest: a cancelled context aborts an
// in-flight search request.
func TestClientContextCancelMidRequest(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/meta", metaHandler())
	mux.HandleFunc("/v1/search", func(w http.ResponseWriter, r *http.Request) {
		if first.Swap(false) {
			// Hold the first request until the client aborts. The body
			// must be drained first: the server only watches for client
			// disconnects once the request body is consumed.
			_, _ = io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(10 * time.Second):
			}
		}
		writeJSON(w, http.StatusOK, SearchResponse{Tuples: [][]int{}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	base, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := base.WithContext(ctx)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Query(nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query = %v, want context.Canceled", err)
	}
	// The parent client is unaffected by the view's context.
	if _, err := base.Query(nil); err != nil {
		t.Fatalf("parent client query after view cancel: %v", err)
	}
}

// TestClientSharesCounterAcrossViews: context-bound views draw on the
// parent's query accounting.
func TestClientSharesCounterAcrossViews(t *testing.T) {
	db := hidden.MustNew(hidden.Config{
		Data: [][]int{{1, 2}, {2, 1}},
		Caps: []hidden.Capability{hidden.RQ, hidden.RQ},
		K:    2,
	})
	srv := httptest.NewServer(NewServer(db, nil))
	defer srv.Close()
	base, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	view := base.WithContext(context.Background())
	if _, err := view.Query(nil); err != nil {
		t.Fatal(err)
	}
	if base.QueriesIssued() != 1 || view.QueriesIssued() != 1 {
		t.Fatalf("counter not shared: base=%d view=%d", base.QueriesIssued(), view.QueriesIssued())
	}
}
