package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"hiddensky/internal/jsonbuf"
	"hiddensky/internal/obs"
)

// Client is the Go client for a skylined job service.
type Client struct {
	base string
	http *http.Client
}

// Dial checks the daemon's health endpoint and returns a ready client.
// httpClient may be nil (http.DefaultClient).
func Dial(baseURL string, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
	var h Health
	if err := c.do(context.Background(), http.MethodGet, "/v1/health", nil, &h); err != nil {
		return nil, err
	}
	return c, nil
}

// Submit enqueues a job.
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	var st JobStatus
	err := c.do(context.Background(), http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// Jobs lists every job the daemon knows.
func (c *Client) Jobs() ([]JobStatus, error) {
	var resp JobsResponse
	err := c.do(context.Background(), http.MethodGet, "/v1/jobs", nil, &resp)
	return resp.Jobs, err
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(context.Background(), http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Cancel aborts a job.
func (c *Client) Cancel(id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(context.Background(), http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a terminal job's skyline tuples.
func (c *Client) Result(id string) ([][]int, error) {
	var resp ResultResponse
	err := c.do(context.Background(), http.MethodGet, "/v1/jobs/"+id+"/result", nil, &resp)
	return resp.Tuples, err
}

// Trace fetches a job's span tree.
func (c *Client) Trace(id string) (TraceResponse, error) {
	var t TraceResponse
	err := c.do(context.Background(), http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &t)
	return t, err
}

// TraceChrome fetches a job's trace in Chrome trace-event format —
// raw bytes, ready to save and open in Perfetto.
func (c *Client) TraceChrome(id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
		c.base+"/v1/jobs/"+id+"/trace?format=chrome", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: trace request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: trace endpoint answered %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// Health fetches the daemon's health summary.
func (c *Client) Health() (Health, error) {
	var h Health
	err := c.do(context.Background(), http.MethodGet, "/v1/health", nil, &h)
	return h, err
}

// StatsDetail fetches the daemon's /v1/stats snapshot: health, every
// metric series as JSON, and the query cache's counters with
// per-shard detail.
func (c *Client) StatsDetail() (StatsDetail, error) {
	var d StatsDetail
	err := c.do(context.Background(), http.MethodGet, "/v1/stats", nil, &d)
	return d, err
}

// History fetches the daemon's retained time-series rings. last bounds
// the trailing samples per series (<= 0: everything retained).
func (c *Client) History(last int) (obs.HistorySnapshot, error) {
	path := "/v1/history"
	if last > 0 {
		path += "?last=" + strconv.Itoa(last)
	}
	var h obs.HistorySnapshot
	err := c.do(context.Background(), http.MethodGet, path, nil, &h)
	return h, err
}

// Healthz fetches the daemon's health rollup (liveness view: the
// endpoint answers 200 in every state).
func (c *Client) Healthz() (obs.HealthReport, error) {
	var rep obs.HealthReport
	err := c.do(context.Background(), http.MethodGet, "/healthz", nil, &rep)
	return rep, err
}

// Readyz asks the routing question: ready reports whether the daemon
// should receive traffic (the endpoint's 200/503), rep carries the
// rollup detail either way.
func (c *Client) Readyz() (rep obs.HealthReport, ready bool, err error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return rep, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return rep, false, fmt.Errorf("service: readyz request: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return rep, false, fmt.Errorf("service: readyz answered %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return rep, false, fmt.Errorf("service: decoding readyz response: %w", err)
	}
	return rep, resp.StatusCode == http.StatusOK, nil
}

// Answers lists every store's answer-index status.
func (c *Client) Answers() (map[string]AnswerStatus, error) {
	var resp AnswersResponse
	err := c.do(context.Background(), http.MethodGet, "/v1/answer", nil, &resp)
	return resp.Answers, err
}

// AnswerTopK asks the daemon's materialized answer index for the top-k
// tuples under the request's weight vector. No upstream query is spent.
func (c *Client) AnswerTopK(req AnswerTopKRequest) (AnswerTopKResponse, error) {
	var resp AnswerTopKResponse
	err := c.do(context.Background(), http.MethodPost, "/v1/answer/topk", req, &resp)
	return resp, err
}

// TopKBatch answers many weight vectors against one store's answer
// index in fused column sweeps — one POST, results in request order.
func (c *Client) TopKBatch(req AnswerTopKBatchRequest) (AnswerTopKBatchResponse, error) {
	var resp AnswerTopKBatchResponse
	err := c.do(context.Background(), http.MethodPost, "/v1/answer/topk_batch", req, &resp)
	return resp, err
}

// AnswerSkyline asks the answer index for a (subspace) skyline.
func (c *Client) AnswerSkyline(req AnswerSkylineRequest) (AnswerSkylineResponse, error) {
	var resp AnswerSkylineResponse
	err := c.do(context.Background(), http.MethodPost, "/v1/answer/skyline", req, &resp)
	return resp, err
}

// AnswerDominates asks the answer index whether a candidate tuple is
// dominated by anything already discovered.
func (c *Client) AnswerDominates(req AnswerDominatesRequest) (AnswerDominatesResponse, error) {
	var resp AnswerDominatesResponse
	err := c.do(context.Background(), http.MethodPost, "/v1/answer/dominates", req, &resp)
	return resp, err
}

// Wait polls the job every interval until it reaches a terminal state
// (or ctx ends) and returns the final status.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (JobStatus, error) {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		var st JobStatus
		// The poll itself runs under ctx, so a wedged daemon cannot make
		// Wait outlive the caller's deadline.
		err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// Watch subscribes to the job's SSE stream, invoking fn (when non-nil)
// on every update, and returns the final status once the job is
// terminal. If the stream drops mid-job, Watch falls back to one status
// poll so callers still learn the latest state.
func (c *Client) Watch(ctx context.Context, id string, fn func(JobStatus)) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: events request: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, fmt.Errorf("service: events endpoint answered %s", resp.Status)
	}
	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		case line == "" && len(data) > 0:
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return last, fmt.Errorf("service: decoding event: %w", err)
			}
			data = data[:0]
			last = st
			if fn != nil {
				fn(st)
			}
			if st.State.Terminal() {
				return st, nil
			}
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() != nil {
		return last, ctx.Err()
	}
	// Stream ended without a terminal event: fetch the latest status.
	return c.Job(id)
}

// do performs one JSON round trip. Non-2xx answers surface the server's
// error envelope.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := jsonbuf.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var e errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("service: %s %s: %s (%s)", method, path, e.Error, resp.Status)
		}
		return fmt.Errorf("service: %s %s answered %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	if err := jsonbuf.ReadJSON(resp.Body, out); err != nil {
		return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return nil
}
