// Package web puts the "web" back into hidden web database: it serves a
// hidden.DB over HTTP as a JSON search API with the exact same top-k
// semantics, capability enforcement and rate limiting as the in-process
// simulator, and provides a client that implements core.Interface against
// such an endpoint. Discovery algorithms run unmodified against a remote
// database — over a unix socket, localhost, or the open network.
//
// Wire protocol (versioned under /v1):
//
//	GET  /v1/meta                 -> {attrs:[{name,cap,lo,hi}], k}
//	POST /v1/search {preds:[...]} -> {tuples:[[...]], overflow, filters?}
//
// A predicate is {attr, op, value} with op in "<", "<=", "=", ">=", ">".
// Unsupported predicates answer 400, and malformed bodies (trailing
// bytes after the value included) 400. A spent query limit answers 429
// with {"error", "exhausted": true} and no Retry-After: that budget
// never refills.
package web

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"hiddensky/internal/hidden"
	"hiddensky/internal/jsonbuf"
	"hiddensky/internal/obs"
	"hiddensky/internal/query"
)

// MetaResponse describes the searchable schema of the served database.
type MetaResponse struct {
	Attrs []MetaAttr `json:"attrs"`
	K     int        `json:"k"`
}

// MetaAttr is one ranking attribute: its display name, capability
// ("SQ"/"RQ"/"PQ") and advertised value range.
type MetaAttr struct {
	Name string `json:"name"`
	Cap  string `json:"cap"`
	Lo   int    `json:"lo"`
	Hi   int    `json:"hi"`
}

// WirePredicate is the JSON form of one conjunctive predicate.
type WirePredicate struct {
	Attr  int    `json:"attr"`
	Op    string `json:"op"`
	Value int    `json:"value"`
}

// SearchRequest is the body of POST /v1/search.
type SearchRequest struct {
	Preds []WirePredicate `json:"preds"`
}

// SearchResponse is the top-k answer.
type SearchResponse struct {
	Tuples   [][]int    `json:"tuples"`
	Overflow bool       `json:"overflow"`
	Filters  [][]string `json:"filters,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
	// Exhausted marks a 429 for a spent QueryLimit: the budget never
	// refills, so clients should stop rather than retry.
	Exhausted bool `json:"exhausted,omitempty"`
}

// Server serves one hidden database.
type Server struct {
	db    *hidden.DB
	names []string
	mux   *http.ServeMux
	// meta is the pre-encoded /v1/meta body: the schema of an immutable
	// database never changes, so it is rendered once at construction and
	// served as static bytes.
	meta []byte

	// Request telemetry, exposed on GET /metrics (Prometheus text) and
	// GET /v1/stats (JSON). The registry is the server's own, so many
	// Servers in one process never collide.
	reg           *obs.Registry
	searches      *obs.Counter
	rateLimited   *obs.Counter
	metaRequests  *obs.Counter
	searchSeconds *obs.Histogram

	// Time-series and health layer: the sampler rings every registry
	// series for GET /v1/history; the rollup derives ready/degraded
	// for GET /healthz and GET /readyz. The server constructs both but
	// does not start the sampling loop — the embedding daemon calls
	// StartSampler so tests and library users never leak a goroutine.
	sampler *obs.Sampler
	health  *obs.HealthRollup

	log *slog.Logger // nil until SetLogger; access lines for searches
}

// SetLogger attaches a structured logger; the server then writes one
// access-log line per search answer (200 and 429), echoing the
// client's X-Trace-Id so daemon logs on both sides of the wire
// correlate on one id. Call before serving.
func (s *Server) SetLogger(log *slog.Logger) { s.log = log }

// logSearch writes the access-log line for one search answer.
func (s *Server) logSearch(r *http.Request, status, tuples int, d time.Duration) {
	if s.log == nil {
		return
	}
	s.log.Info("search",
		"status", status,
		"tuples", tuples,
		"dur_us", d.Microseconds(),
		"trace_id", r.Header.Get("X-Trace-Id"),
		"remote", r.RemoteAddr,
	)
}

// NewServer wraps db; names optionally labels the attributes (padded with
// A0, A1, ... when short).
func NewServer(db *hidden.DB, names []string) *Server {
	s := &Server{db: db}
	for i := 0; i < db.NumAttrs(); i++ {
		if i < len(names) && names[i] != "" {
			s.names = append(s.names, names[i])
		} else {
			s.names = append(s.names, fmt.Sprintf("A%d", i))
		}
	}
	meta := MetaResponse{K: db.K()}
	for i := 0; i < db.NumAttrs(); i++ {
		dom := db.Domain(i)
		meta.Attrs = append(meta.Attrs, MetaAttr{
			Name: s.names[i],
			Cap:  db.Cap(i).String(),
			Lo:   dom.Lo,
			Hi:   dom.Hi,
		})
	}
	s.meta, _ = jsonbuf.Encode(meta)
	s.reg = obs.NewRegistry()
	s.searches = s.reg.Counter("search_requests_total", "search requests answered with a top-k result (HTTP 200)")
	s.rateLimited = s.reg.Counter("search_rate_limited_total", "search requests rejected by the rate limiter (HTTP 429)")
	s.metaRequests = s.reg.Counter("meta_requests_total", "schema fetches served")
	s.searchSeconds = s.reg.Histogram("search_seconds", "latency of successfully answered search requests")
	obs.RegisterRuntime(s.reg)
	s.sampler = obs.NewSampler(s.reg, obs.SamplerConfig{})
	// A standalone search server has no recovery phase: the gate opens
	// at construction, and health degrades only on sustained 429s.
	s.health = obs.NewHealthRollup("")
	s.health.SetReady()
	s.health.AddCheck("search_429_rate", DefaultMax429Rate, func() float64 {
		return s.sampler.Rate("search_rate_limited_total", time.Minute)
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/meta", s.handleMeta)
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.reg))
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.reg.Snapshots())
	})
	s.mux.HandleFunc("GET /v1/history", s.handleHistory)
	s.mux.Handle("GET /healthz", obs.HealthzHandler(s.health))
	s.mux.Handle("GET /readyz", obs.ReadyzHandler(s.health))
	// Errors outside the handlers answer the same JSON envelope as
	// 400/429 — API clients should never have to parse a plain-text
	// body. A method-less pattern ranks below the method-qualified one
	// for the right verb, so it catches exactly the wrong-method
	// requests (405, keeping the Allow header the mux would have sent);
	// the "/" fallback catches unknown paths (404).
	methodNotAllowed := func(allow string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			writeJSON(w, http.StatusMethodNotAllowed, errorResponse{
				Error: fmt.Sprintf("web: method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)})
		}
	}
	s.mux.HandleFunc("/v1/meta", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/v1/search", methodNotAllowed("POST"))
	s.mux.HandleFunc("/metrics", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/v1/stats", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/v1/history", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/healthz", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/readyz", methodNotAllowed("GET, HEAD"))
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("web: no such endpoint %s %s", r.Method, r.URL.Path)})
	})
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Registry exposes the server's metrics registry, so an embedding
// daemon can graft extra series (e.g. process info) onto /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// DefaultMax429Rate is the search_429_rate health threshold: sustained
// rate-limit rejections above one per second over the trailing minute
// mark the server degraded.
const DefaultMax429Rate = 1.0

// ConfigureSampler replaces the server's sampler (interval/retention
// flag wiring). Call before StartSampler; the health checks re-bind to
// the new sampler automatically because they close over s.sampler.
func (s *Server) ConfigureSampler(cfg obs.SamplerConfig) {
	s.sampler = obs.NewSampler(s.reg, cfg)
}

// StartSampler launches the background sampling loop and returns the
// function that stops it. Daemons call this once after flag wiring.
func (s *Server) StartSampler() (stop func()) {
	s.sampler.Start()
	return s.sampler.Stop
}

// Sampler exposes the time-series layer (tests, embedding daemons).
func (s *Server) Sampler() *obs.Sampler { return s.sampler }

// Health exposes the rollup so daemons can tune thresholds via flags.
func (s *Server) Health() *obs.HealthRollup { return s.health }

// handleHistory serves the retained time-series rings. ?last=N bounds
// the trailing samples per series.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) {
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("web: bad last=%q (want a non-negative integer)", v)})
			return
		}
		last = n
	}
	writeJSON(w, http.StatusOK, s.sampler.History(last))
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	s.metaRequests.Inc()
	jsonbuf.WriteStatic(w, http.StatusOK, s.meta)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	buf, err := jsonbuf.ReadBody(r.Body)
	if err == nil {
		err = req.UnmarshalJSON(buf.Bytes())
		jsonbuf.Release(buf)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	q, err := decodeQuery(req.Preds)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	t0 := time.Now()
	res, filters, err := s.db.QueryFull(q)
	switch {
	case errors.Is(err, hidden.ErrRateLimited):
		s.rateLimited.Inc()
		s.logSearch(r, http.StatusTooManyRequests, 0, time.Since(t0))
		// The database's limit is a QueryLimit that never refills: no
		// Retry-After, and the envelope tells clients to stop.
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Exhausted: errors.Is(err, hidden.ErrQuotaExhausted)})
		return
	case errors.Is(err, hidden.ErrUnsupportedPredicate), errors.Is(err, hidden.ErrBadQuery):
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	resp := SearchResponse{Overflow: res.Overflow, Filters: filters}
	resp.Tuples = res.Tuples
	if resp.Tuples == nil {
		resp.Tuples = [][]int{}
	}
	s.searches.Inc()
	s.searchSeconds.Observe(time.Since(t0))
	s.logSearch(r, http.StatusOK, len(resp.Tuples), time.Since(t0))
	writeJSON(w, http.StatusOK, resp)
}

// writeJSON answers v through the shared pooled encoder: /v1/search is
// the serving hot path, and per-request encoder garbage is what caps
// its throughput under load.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jsonbuf.Write(w, status, v)
}

// decodeQuery converts wire predicates into the internal query form.
func decodeQuery(preds []WirePredicate) (query.Q, error) {
	var q query.Q
	for _, p := range preds {
		op, err := parseOp(p.Op)
		if err != nil {
			return nil, err
		}
		q = append(q, query.Predicate{Attr: p.Attr, Op: op, Value: p.Value})
	}
	return q, nil
}

func parseOp(s string) (query.Op, error) {
	switch s {
	case "<":
		return query.LT, nil
	case "<=":
		return query.LE, nil
	case "=", "==":
		return query.EQ, nil
	case ">=":
		return query.GE, nil
	case ">":
		return query.GT, nil
	}
	return 0, fmt.Errorf("web: unknown operator %q", s)
}

func encodeOp(op query.Op) string {
	switch op {
	case query.LT:
		return "<"
	case query.LE:
		return "<="
	case query.EQ:
		return "="
	case query.GE:
		return ">="
	case query.GT:
		return ">"
	}
	return "?"
}
