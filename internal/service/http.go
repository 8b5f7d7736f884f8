package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hiddensky/internal/jsonbuf"
	"hiddensky/internal/obs"
)

// HTTP API (versioned under /v1), served by cmd/skylined:
//
//	GET    /v1/health            -> {stores, jobs, running, queued}
//	GET    /v1/stats             -> StatsDetail: health + every metric
//	                                series as JSON + cache counters
//	                                with per-shard detail
//	GET    /v1/history           -> obs.HistorySnapshot: the retained
//	                                time-series rings (?last=N bounds
//	                                trailing samples per series)
//	GET    /healthz              -> obs.HealthReport, always 200
//	                                (liveness + full rollup detail)
//	GET    /readyz               -> obs.HealthReport; 503 while the
//	                                daemon is recovering or draining,
//	                                200 once it should receive traffic
//	GET    /metrics              -> the same registry in Prometheus
//	                                text exposition format
//	POST   /v1/jobs  {JobSpec}   -> JobStatus (201); 400 + the error
//	                                envelope when the spec is malformed
//	                                or the planner rejects the algo /
//	                                band / where / resumable combination
//	                                for the target store's interface
//	GET    /v1/jobs              -> {jobs: [JobStatus]}
//	GET    /v1/jobs/{id}         -> JobStatus
//	DELETE /v1/jobs/{id}         -> JobStatus (cancels the job)
//	GET    /v1/jobs/{id}/result  -> {tuples: [[...]]} (terminal jobs)
//	GET    /v1/jobs/{id}/trace   -> TraceResponse: the job's span tree
//	                                (?format=chrome renders Chrome
//	                                trace events for Perfetto)
//	GET    /v1/jobs/{id}/events  -> SSE stream of JobStatus updates:
//	                                "progress" events while the job
//	                                runs, one final "done" event.
//
// The answer read path (served from the per-store materialized answer
// index, no upstream queries; 409 until a discovery job has completed
// for the store):
//
//	GET  /v1/answer                     -> {answers: {store: {loaded, info, job}}}
//	POST /v1/answer/topk      {AnswerTopKRequest}      -> AnswerTopKResponse
//	POST /v1/answer/topk_batch {AnswerTopKBatchRequest} -> AnswerTopKBatchResponse
//	                                (many weight vectors against one
//	                                store, scored in fused column
//	                                sweeps; results in request order)
//	POST /v1/answer/skyline   {AnswerSkylineRequest}   -> AnswerSkylineResponse
//	POST /v1/answer/dominates {AnswerDominatesRequest} -> AnswerDominatesResponse

// JobsResponse is the body of GET /v1/jobs.
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// ResultResponse is the body of GET /v1/jobs/{id}/result.
type ResultResponse struct {
	Tuples [][]int `json:"tuples"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler serves a Manager over HTTP.
type Handler struct {
	m   *Manager
	mux *http.ServeMux
}

// NewHandler wraps the manager in the /v1 job API.
func NewHandler(m *Manager) *Handler {
	h := &Handler{m: m, mux: http.NewServeMux()}
	h.mux.HandleFunc("GET /v1/health", h.handleHealth)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("GET /v1/history", h.handleHistory)
	h.mux.Handle("GET /healthz", obs.HealthzHandler(m.HealthRollup()))
	h.mux.Handle("GET /readyz", obs.ReadyzHandler(m.HealthRollup()))
	h.mux.Handle("GET /metrics", obs.MetricsHandler(m.Registry()))
	h.mux.HandleFunc("POST /v1/jobs", h.handleSubmit)
	h.mux.HandleFunc("GET /v1/jobs", h.handleList)
	h.mux.HandleFunc("GET /v1/jobs/{id}", h.handleGet)
	h.mux.HandleFunc("DELETE /v1/jobs/{id}", h.handleCancel)
	h.mux.HandleFunc("GET /v1/jobs/{id}/result", h.handleResult)
	h.mux.HandleFunc("GET /v1/jobs/{id}/trace", h.handleTrace)
	h.mux.HandleFunc("GET /v1/jobs/{id}/events", h.handleEvents)
	h.mux.HandleFunc("GET /v1/answer", h.handleAnswers)
	h.mux.HandleFunc("POST /v1/answer/topk", answerEndpoint(h.m.AnswerTopK))
	h.mux.HandleFunc("POST /v1/answer/topk_batch", answerEndpoint(h.m.AnswerTopKBatch))
	h.mux.HandleFunc("POST /v1/answer/skyline", answerEndpoint(h.m.AnswerSkyline))
	h.mux.HandleFunc("POST /v1/answer/dominates", answerEndpoint(h.m.AnswerDominates))
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.m.Stats())
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.m.StatsFull())
}

// handleHistory serves the retained time-series rings. ?last=N bounds
// the trailing samples per series.
func (h *Handler) handleHistory(w http.ResponseWriter, r *http.Request) {
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("service: bad last=%q (want a non-negative integer)", v)})
			return
		}
		last = n
	}
	writeJSON(w, http.StatusOK, h.m.History(last))
}

func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed job spec: " + err.Error()})
		return
	}
	st, err := h.m.Submit(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (h *Handler) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := h.m.List()
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, http.StatusOK, JobsResponse{Jobs: jobs})
}

func (h *Handler) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := h.m.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := h.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (h *Handler) handleResult(w http.ResponseWriter, r *http.Request) {
	tuples, err := h.m.Result(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrNotFinished):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	if tuples == nil {
		tuples = [][]int{}
	}
	writeJSON(w, http.StatusOK, ResultResponse{Tuples: tuples})
}

// handleTrace serves a job's span tree: structured JSON by default,
// Chrome trace-event format with ?format=chrome (pipe it into a file
// and open it in Perfetto).
func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	t, err := h.m.Trace(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = obs.WriteChromeTrace(w, t.Spans)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleEvents streams job status updates as server-sent events until
// the job is terminal or the client disconnects.
func (h *Handler) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, stop, err := h.m.Watch(id)
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	defer stop()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	send := func(event string, st JobStatus) bool {
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case st, open := <-ch:
			if !open {
				// Terminal updates can outrun a full buffer; the final
				// status is always available from the manager. A closed
				// channel can also mean the job was parked by a manager
				// shutdown — that is not "done", so label honestly.
				if final, found := h.m.Get(id); found {
					event := "progress"
					if final.State.Terminal() {
						event = "done"
					}
					send(event, final)
				}
				return
			}
			event := "progress"
			if st.State.Terminal() {
				event = "done"
			}
			if !send(event, st) || event == "done" {
				return
			}
		}
	}
}

func (h *Handler) handleAnswers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, AnswersResponse{Answers: h.m.Answers()})
}

// answerEndpoint adapts one manager answer method into an HTTP handler:
// decode the request, map errors (unknown store 404, index not built
// yet 409, bad query 400), encode the answer.
func answerEndpoint[Req, Resp any](fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if err := jsonbuf.ReadJSON(r.Body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "malformed request: " + err.Error()})
			return
		}
		resp, err := fn(req)
		switch {
		case errors.Is(err, ErrUnknownStore):
			writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		case errors.Is(err, ErrNoAnswer):
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		case err != nil:
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		default:
			writeJSON(w, http.StatusOK, resp)
		}
	}
}

// writeJSON answers v through the shared pooled encoder — the answer
// read path (/v1/answer/topk) is served at memory speed, so encoding
// garbage is its dominant per-request cost.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jsonbuf.Write(w, status, v)
}
