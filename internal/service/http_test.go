package service

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hiddensky/internal/core"
	"hiddensky/internal/hidden"
)

func newTestService(t *testing.T, cfg Config) (*Manager, *Client) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m.Close(ctx)
		srv.Close()
	})
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

// TestHTTPSubmitWatchResult drives the full client surface: health,
// submit, SSE watch to completion, result and listing.
func TestHTTPSubmitWatchResult(t *testing.T) {
	d := testDataset(10, 200)
	m, c := newTestService(t, Config{MaxConcurrent: 2})
	if err := m.AddStore("s", d.DB(4, hidden.SumRank{})); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Stores) != 1 || h.Stores[0] != "s" {
		t.Fatalf("health stores = %v", h.Stores)
	}

	st, err := c.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State.Terminal() {
		t.Fatalf("fresh job status %+v", st)
	}
	var updates int
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := c.Watch(ctx, st.ID, func(JobStatus) { updates++ })
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || !final.Complete {
		t.Fatalf("watched job ended %s (complete=%v, err=%q)", final.State, final.Complete, final.Error)
	}
	if updates == 0 {
		t.Fatal("watch saw no updates")
	}

	want, err := core.Run(d.DB(4, hidden.SumRank{}), core.Request{Algo: core.AlgoSQ}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := c.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, tuples, want.Skyline)

	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("job listing = %+v", jobs)
	}
	got, err := c.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Queries != want.Queries {
		t.Fatalf("job reports %d queries, sequential run %d", got.Queries, want.Queries)
	}
}

// TestHTTPCancel: DELETE aborts a running job through the API.
func TestHTTPCancel(t *testing.T) {
	d := testDataset(11, 400)
	store := &instrumentedDB{
		Interface: d.DB(3, hidden.SumRank{}),
		delay:     2 * time.Millisecond,
		reached:   make(chan struct{}),
		notify:    5,
	}
	m, c := newTestService(t, Config{MaxConcurrent: 1})
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	st, err := c.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-store.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started querying")
	}
	if _, err := c.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCancelled {
		t.Fatalf("cancelled job ended %s", final.State)
	}
}

// TestHTTPErrors: the API answers bad requests with typed errors.
func TestHTTPErrors(t *testing.T) {
	d := testDataset(12, 100)
	store := &instrumentedDB{
		Interface: d.DB(3, hidden.SumRank{}),
		delay:     time.Millisecond,
		reached:   make(chan struct{}),
		notify:    1,
	}
	m, c := newTestService(t, Config{MaxConcurrent: 1})
	if err := m.AddStore("s", store); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Store: "nope"}); err == nil || !strings.Contains(err.Error(), "unknown store") {
		t.Fatalf("unknown-store submit: %v", err)
	}
	if _, err := c.Job("j999999"); err == nil {
		t.Fatal("unknown job fetch succeeded")
	}
	if _, err := c.Result("j999999"); err == nil {
		t.Fatal("unknown job result succeeded")
	}
	st, err := c.Submit(JobSpec{Store: "s", Algo: "sq"})
	if err != nil {
		t.Fatal(err)
	}
	<-store.reached
	if _, err := c.Result(st.ID); err == nil || !strings.Contains(err.Error(), "not finished") {
		t.Fatalf("mid-run result: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
}
