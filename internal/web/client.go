package web

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/jsonbuf"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
	"hiddensky/internal/retry"
)

// RateLimitError reports that the remote endpoint kept rate-limiting the
// client until its retry policy gave up, or said its query quota is
// spent. It unwraps to hidden.ErrRateLimited (hidden.ErrQuotaExhausted
// for a spent quota, which the retry policy does not retry), so
// errors.Is(err, hiddensky.ErrRateLimited) holds and the discovery
// algorithms treat it as their anytime budget stop.
type RateLimitError struct {
	// RetryAfter is the last answer's Retry-After, as the server sent it
	// (zero when not advertised); the retry policy's RetryAfterCap
	// bounds how long the client actually waits.
	RetryAfter time.Duration
	// Attempts is how many round trips were tried before giving up.
	Attempts int
	// Exhausted reports the 429's envelope said "exhausted": true.
	Exhausted bool
}

func (e *RateLimitError) Error() string {
	switch {
	case e.Exhausted:
		return fmt.Sprintf("web: remote query quota exhausted (%d attempts)", e.Attempts)
	case e.RetryAfter > 0:
		return fmt.Sprintf("web: remote answered 429 %d times (retry after %v)", e.Attempts, e.RetryAfter)
	}
	return fmt.Sprintf("web: remote answered 429 %d times", e.Attempts)
}

func (e *RateLimitError) Unwrap() error {
	if e.Exhausted {
		return hidden.ErrQuotaExhausted
	}
	return hidden.ErrRateLimited
}

// RetryAfterHint implements retry.AfterHinter.
func (e *RateLimitError) RetryAfterHint() time.Duration { return e.RetryAfter }

// TransientError reports that the upstream stayed transiently broken —
// 5xx answers, connection resets, truncated bodies, per-attempt timeouts
// — for every attempt the retry policy allowed. It wraps the last
// attempt's error, whose chain includes retry.ErrUnavailable, so callers
// distinguish "upstream on fire" (park, trip the breaker) from a rate
// limit (anytime budget stop) and from fatal protocol errors.
type TransientError struct {
	// Attempts is how many round trips were tried.
	Attempts int
	// Err is the last attempt's failure.
	Err error
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("web: upstream unavailable after %d attempts: %v", e.Attempts, e.Err)
}

func (e *TransientError) Unwrap() error { return e.Err }

// Client implements core.Interface against a remote hidden-database
// endpoint served by Server. The discovery algorithms run against it
// unchanged — every Query is one HTTP round trip, mirroring what a real
// third-party service pays per search request. A Client is safe for
// concurrent use: the parallel executor and federated fleets may share
// one, reusing its keep-alive connections.
type Client struct {
	base string
	http *http.Client
	ctx  context.Context // nil: requests are not bound to a context

	k       int
	caps    []hidden.Capability
	domains []query.Interval
	names   []string
	queries *atomic.Int64
	policy  *atomic.Pointer[retry.Policy] // nil entry = default policy
	metrics *ClientMetrics                // nil: uninstrumented; shared by WithContext views

	name       string      // store label for span annotations ("" ok)
	tracer     *obs.Tracer // nil: untraced (see WithTrace)
	spanParent uint64      // span id query spans hang under
	traceID    string      // sent as X-Trace-Id when non-empty
}

// ClientMetrics instruments a Client's upstream traffic. All fields
// are optional; recording is atomic, adding no allocation to the
// query path.
type ClientMetrics struct {
	// Queries counts search round trips answered 200 (the queries the
	// upstream actually served — cache hits never reach here).
	Queries *obs.Counter
	// RateLimited counts 429 answers (each retried attempt contributes
	// one).
	RateLimited *obs.Counter
	// Retries counts backoff-and-retry cycles (after a 429 or a
	// transient failure).
	Retries *obs.Counter
	// Unavailable counts transient upstream failures: 5xx answers,
	// connection resets, truncated bodies, per-attempt timeouts.
	Unavailable *obs.Counter
	// RetryAttempts observes how many retries each upstream query needed
	// before success or give-up (0 on the happy path; recorded as "1ns
	// == 1 retry").
	RetryAttempts *obs.Histogram
	// QuerySeconds observes the latency of successful search round trips.
	QuerySeconds *obs.Histogram
}

// NewClientMetrics registers a client's metric set on r, labelling every
// series with the store name (so one registry serves many upstreams).
func NewClientMetrics(r *obs.Registry, store string) *ClientMetrics {
	l := `{store="` + obs.EscapeLabel(store) + `"}`
	return &ClientMetrics{
		Queries:       r.Counter("upstream_queries_total"+l, "search queries answered by the upstream (HTTP 200)"),
		RateLimited:   r.Counter("upstream_rate_limited_total"+l, "HTTP 429 answers from the upstream"),
		Retries:       r.Counter("upstream_retries_total"+l, "backoff-and-retry cycles after a 429 or transient failure"),
		Unavailable:   r.Counter("upstream_unavailable_total"+l, "transient upstream failures (5xx, resets, truncated bodies, timeouts)"),
		RetryAttempts: r.Histogram("upstream_retry_attempts"+l, "retries needed per upstream query (1ns == 1 retry)"),
		QuerySeconds:  r.Histogram("upstream_query_seconds"+l, "latency of successful upstream search round trips"),
	}
}

// SetMetrics attaches metrics to the client. Call it right after Dial,
// before the client is shared across goroutines; views made later by
// WithContext inherit the same bundle, so per-job handles keep feeding
// the daemon-wide series.
func (c *Client) SetMetrics(m *ClientMetrics) { c.metrics = m }

// SetName labels the client with its store name; traced query spans
// carry it as their "store" attribute. Call it alongside SetMetrics,
// before the client is shared; WithContext/WithTrace views inherit it.
func (c *Client) SetName(name string) { c.name = name }

// Dial fetches the remote schema and returns a ready client. httpClient
// may be nil (http.DefaultClient).
func Dial(baseURL string, httpClient *http.Client) (*Client, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{
		base:    strings.TrimRight(baseURL, "/"),
		http:    httpClient,
		queries: new(atomic.Int64),
		policy:  new(atomic.Pointer[retry.Policy]),
	}
	resp, err := c.http.Get(c.base + "/v1/meta")
	if err != nil {
		return nil, fmt.Errorf("web: fetching meta: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("web: meta endpoint answered %s", resp.Status)
	}
	var meta MetaResponse
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return nil, fmt.Errorf("web: decoding meta: %w", err)
	}
	if meta.K < 1 || len(meta.Attrs) == 0 {
		return nil, fmt.Errorf("web: implausible meta: k=%d, %d attributes", meta.K, len(meta.Attrs))
	}
	c.k = meta.K
	for _, a := range meta.Attrs {
		cap, err := parseCap(a.Cap)
		if err != nil {
			return nil, err
		}
		c.caps = append(c.caps, cap)
		c.domains = append(c.domains, query.Interval{Lo: a.Lo, Hi: a.Hi})
		c.names = append(c.names, a.Name)
	}
	return c, nil
}

// SetRetryPolicy installs a full retry policy (attempts, exponential
// backoff, jitter, per-attempt timeout, Retry-After cap). Call it before
// the client is shared; WithContext/WithTrace views read the same
// policy. The zero Policy means all defaults.
func (c *Client) SetRetryPolicy(p retry.Policy) {
	p = p.Normalize()
	c.policy.Store(&p)
}

// retryPolicy returns the active normalized policy.
func (c *Client) retryPolicy() retry.Policy {
	if p := c.policy.Load(); p != nil {
		return *p
	}
	return retry.Policy{}.Normalize()
}

// WithContext returns a view of the client whose requests (and 429
// backoff waits) are aborted when ctx is cancelled. The view shares the
// underlying HTTP client, schema and query counter, so a long-lived
// client can hand each job its own cancellable handle — exactly what a
// discovery service needs to stop a killed job from issuing further
// upstream queries.
func (c *Client) WithContext(ctx context.Context) *Client {
	d := *c
	d.ctx = ctx
	return &d
}

// WithTrace returns a view of the client that records one "web.query"
// span per counted upstream query (store, canonical-key fingerprint,
// tuples returned, HTTP status, retries, latency) under parent, and
// stamps every search request with the trace's id as an X-Trace-Id
// header so the server's access log correlates with this job. The
// view shares the HTTP client, schema and query counter, exactly like
// WithContext.
func (c *Client) WithTrace(t *obs.Tracer, parent uint64) *Client {
	d := *c
	d.tracer = t
	d.spanParent = parent
	d.traceID = t.TraceID()
	return &d
}

// reqCtx is the context requests are issued under.
func (c *Client) reqCtx() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// Query implements core.Interface with one HTTP search request, retried
// by retry.Policy.Do under the client's retry policy (SetRetryPolicy;
// defaults otherwise) — the same loop chaos.Harden runs in-process.
// Recoverable failures — 429s, 5xx answers, connection resets, truncated
// bodies, per-attempt timeouts — back off exponentially with jitter, a
// server Retry-After (capped by the policy's RetryAfterCap) winning over
// the computed wait; transient trouble is the norm mid-discovery and a
// raw error would abort an otherwise healthy run. Once the policy's
// attempts are spent, a persistent 429 returns a *RateLimitError
// (errors.Is-matches hiddensky.ErrRateLimited, discovery's anytime
// budget stop) and a persistent transient failure returns a
// *TransientError (errors.Is-matches retry.ErrUnavailable, the service
// layer's park-and-break signal). Retrying never double-counts: a failed
// attempt returned no data, so the eventual answer is the one a clean
// upstream would have given.
func (c *Client) Query(q query.Q) (hidden.Result, error) {
	req := SearchRequest{Preds: make([]WirePredicate, len(q))}
	for i, p := range q {
		req.Preds[i] = WirePredicate{Attr: p.Attr, Op: encodeOp(p.Op), Value: p.Value}
	}
	// Not pooled: the transport may still be writing a request body
	// after Do returns (an early response), so it must not be reused.
	// A predicate takes at most 48 bytes unless its value is huge.
	body, _ := req.AppendJSON(make([]byte, 0, 16+48*len(q))) // a search request always encodes
	pol := c.retryPolicy()
	// One span per counted upstream query: it opens before the first
	// attempt so its latency covers every backoff, Ends as "web.query"
	// only when the upstream answered 200 (keeping the span count
	// exactly equal to the counted queries), is renamed
	// "web.rate_limited" / "web.unavailable" for terminal give-ups, and
	// is abandoned (never recorded) on fatal protocol errors.
	sp := c.tracer.Start("web.query", c.spanParent)
	if c.tracer != nil {
		if c.name != "" {
			sp.SetStr("store", c.name)
		}
		sp.SetInt("key", int64(c.queryKey(q)))
	}
	var res hidden.Result
	attempts, err := pol.Do(c.reqCtx(), rand.Float64, func() (err error) {
		res, err = c.search(body, pol.PerAttemptTimeout)
		return err
	})
	retries := int64(attempts - 1)
	if m := c.metrics; m != nil && m.Retries != nil && retries > 0 {
		m.Retries.Add(retries)
	}
	// Do hands back the last attempt's error unchanged: a rate limit or
	// a transient failure here means the attempts are spent.
	rle, limited := err.(*RateLimitError)
	if err != nil && !limited && !retry.Transient(err) {
		return hidden.Result{}, err
	}
	if m := c.metrics; m != nil && m.RetryAttempts != nil {
		m.RetryAttempts.Observe(time.Duration(retries))
	}
	switch {
	case err == nil:
		sp.SetInt("tuples", int64(len(res.Tuples)))
		sp.SetInt("status", http.StatusOK)
	case limited:
		rle.Attempts = attempts
		sp.Rename("web.rate_limited")
		sp.SetInt("status", http.StatusTooManyRequests)
	default:
		sp.Rename("web.unavailable")
		err = &TransientError{Attempts: attempts, Err: err}
	}
	sp.SetInt("retries", retries)
	sp.End()
	return res, err
}

// queryKey fingerprints the query's canonical box under the remote
// domains with query.Box.Fingerprint, the "key" a qcache.lookup span
// records, so a trace reader can tie a web.query span to the lookup that
// missed. Computed only on traced queries.
func (c *Client) queryKey(q query.Q) uint64 {
	var ivArr [16]query.Interval // wider schemas allocate the box
	return q.CanonicalizeInto(ivArr[:0], c.domains).Fingerprint()
}

// transientf builds a retryable error (wrapping retry.ErrUnavailable)
// and counts it on the Unavailable series.
func (c *Client) transientf(format string, args ...any) error {
	if m := c.metrics; m != nil && m.Unavailable != nil {
		m.Unavailable.Inc()
	}
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), retry.ErrUnavailable)
}

// search performs one POST /v1/search round trip, bounded by timeout
// when positive. The response body is always drained so the keep-alive
// connection can be reused by the next (possibly concurrent) query.
// A 429 returns a *RateLimitError carrying the answer's Retry-After.
// Failures the retry loop may take another attempt at — transport errors
// and timeouts with the parent context still live, 5xx answers, bodies
// that fail to decode (truncated mid-payload) — wrap
// retry.ErrUnavailable; protocol errors (bad predicate, implausible
// status) stay fatal.
func (c *Client) search(body []byte, timeout time.Duration) (hidden.Result, error) {
	ctx := c.reqCtx()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/search", bytes.NewReader(body))
	if err != nil {
		return hidden.Result{}, fmt.Errorf("web: building search request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traceID != "" {
		req.Header.Set("X-Trace-Id", c.traceID)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		if c.ctx != nil && c.ctx.Err() != nil {
			// The job itself was cancelled — not the upstream's fault,
			// and not worth another attempt.
			return hidden.Result{}, fmt.Errorf("web: search request: %w", err)
		}
		return hidden.Result{}, c.transientf("web: search request: %v", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusTooManyRequests:
		if m := c.metrics; m != nil && m.RateLimited != nil {
			m.RateLimited.Inc()
		}
		// A spent quota says so in its envelope; any other body (a
		// proxy's, an injected fault's) is an ordinary rate limit.
		var env errorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&env)
		return hidden.Result{}, &RateLimitError{
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Exhausted:  env.Exhausted,
		}
	case resp.StatusCode == http.StatusBadRequest:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return hidden.Result{}, fmt.Errorf("%w: %s", hidden.ErrUnsupportedPredicate, strings.TrimSpace(string(msg)))
	case resp.StatusCode >= 500:
		return hidden.Result{}, c.transientf("web: search answered %s", resp.Status)
	default:
		return hidden.Result{}, fmt.Errorf("web: search answered %s", resp.Status)
	}
	var sr SearchResponse
	buf, err := jsonbuf.ReadBody(resp.Body)
	if err == nil {
		err = sr.UnmarshalJSON(buf.Bytes())
		jsonbuf.Release(buf)
	}
	if err != nil {
		// A read or decode failure on a 200 means the body was cut
		// mid-payload (or the connection dropped); the answer was never
		// counted, so another attempt is safe.
		return hidden.Result{}, c.transientf("web: decoding search response: %v", err)
	}
	c.queries.Add(1)
	if m := c.metrics; m != nil {
		if m.Queries != nil {
			m.Queries.Inc()
		}
		if m.QuerySeconds != nil {
			m.QuerySeconds.Observe(time.Since(t0))
		}
	}
	return hidden.Result{Tuples: sr.Tuples, Overflow: sr.Overflow}, nil
}

// parseRetryAfter reads a seconds-valued Retry-After header as sent;
// the retry policy's RetryAfterCap bounds the wait it causes.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	if int64(secs) > math.MaxInt64/int64(time.Second) {
		return math.MaxInt64 // beyond time.Duration: wait as long as the policy allows
	}
	return time.Duration(secs) * time.Second
}

// NumAttrs implements core.Interface.
func (c *Client) NumAttrs() int { return len(c.caps) }

// K implements core.Interface.
func (c *Client) K() int { return c.k }

// Cap implements core.Interface.
func (c *Client) Cap(i int) hidden.Capability { return c.caps[i] }

// Domain implements core.Interface.
func (c *Client) Domain(i int) query.Interval { return c.domains[i] }

// AttrName returns the remote display name of attribute i.
func (c *Client) AttrName(i int) string { return c.names[i] }

// QueriesIssued counts successful search requests sent by this client.
func (c *Client) QueriesIssued() int { return int(c.queries.Load()) }

func parseCap(s string) (hidden.Capability, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "SQ":
		return hidden.SQ, nil
	case "RQ":
		return hidden.RQ, nil
	case "PQ":
		return hidden.PQ, nil
	}
	return 0, fmt.Errorf("web: unknown capability %q in remote meta", s)
}
