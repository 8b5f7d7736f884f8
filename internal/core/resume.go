package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Session is a checkpoint of an interrupted SQ-DB-SKY run, designed for
// the paper's operating reality: per-day query quotas (Google's QPX
// allowed 50 free queries per day). Algorithm 1's state is just its FIFO
// queue of pending node queries plus the tuples confirmed so far — both
// plain data — so discovery can stop at the quota, serialize, and resume
// tomorrow without repeating a single query.
//
// Resume runs SQ-DB-SKY's own walker (which also runs on RQ interfaces)
// with Pending as its FIFO queue and a checkpoint hook after every
// answered node, so a session sliced by any budget issues exactly the
// one-shot run's queries, in its order. A session keeps only the
// skyline, so a K-skyband run, which counts dominators among every
// discovered tuple, cannot be resumed.
type Session struct {
	// Pending holds the exclusive per-attribute upper-bound vectors of the
	// unexplored tree nodes, FIFO order.
	Pending [][]int `json:"pending"`
	// Skyline holds the candidate skyline confirmed so far.
	Skyline [][]int `json:"skyline"`
	// Queries accumulates the cost of all completed sessions.
	Queries int `json:"queries"`
	// Attrs pins the schema for sanity checks at resume time.
	Attrs int `json:"attrs"`
	// Filter pins the conjunctive filter the session was planned with
	// ("" = unfiltered; see Request.Filter). The planner refuses to
	// resume a checkpoint under a different filter — the frontier would
	// be neither the filtered nor the full skyline. Sessions from
	// checkpoints older than the planner carry "" and resume as
	// unfiltered runs.
	Filter string `json:"filter,omitempty"`

	// OnCheckpoint, when non-nil, is invoked during Resume — after every
	// CheckpointEvery completed queries, and once more before Resume
	// returns — with the session synchronized to a consistent,
	// serializable state (Pending, Skyline and Queries all reflect
	// exactly the queries answered so far). A daemon installs a hook that
	// persists the session so a crash between Resume calls loses at most
	// CheckpointEvery-1 queries of work. A hook error aborts the Resume
	// call; the session stays consistent and resumable. The hook is not
	// serialized and must be re-installed after ReadSession.
	OnCheckpoint func(*Session) error `json:"-"`
	// CheckpointEvery is the number of completed queries between
	// OnCheckpoint invocations; values <= 0 mean after every query.
	CheckpointEvery int `json:"-"`

	base  int // Queries when the current Resume call began
	since int // answers since the last OnCheckpoint of this call
}

// NewSession starts a fresh checkpointable run for db: its one pending
// node is the SQ walk's root.
func NewSession(db Interface) *Session {
	w := newTreeWalker(newCtx(db, Options{}), nil, allAttrs(db.NumAttrs()), false)
	return &Session{Pending: [][]int{w.root().ub}, Attrs: db.NumAttrs()}
}

// Done reports whether discovery has finished (nothing left to explore).
func (s *Session) Done() bool { return len(s.Pending) == 0 }

// Save serializes the checkpoint as JSON.
func (s *Session) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// ReadSession loads a checkpoint.
func ReadSession(r io.Reader) (*Session, error) {
	var s Session
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("core: decoding session: %w", err)
	}
	if err := s.check(); err != nil {
		return nil, err
	}
	return &s, nil
}

// check rejects a session no run could have checkpointed: every pending
// node and skyline tuple must have Attrs entries, and the query count
// cannot be negative. Resume calls it, so a checkpoint decoded by any
// means fails with an error instead of a panic mid-walk.
func (s *Session) check() error {
	if s.Attrs < 1 {
		return fmt.Errorf("core: implausible session (attrs=%d)", s.Attrs)
	}
	if s.Queries < 0 {
		return fmt.Errorf("core: implausible session (queries=%d)", s.Queries)
	}
	for _, ub := range s.Pending {
		if len(ub) != s.Attrs {
			return fmt.Errorf("core: session node has %d bounds, want %d", len(ub), s.Attrs)
		}
	}
	for _, t := range s.Skyline {
		if len(t) != s.Attrs {
			return fmt.Errorf("core: session skyline tuple has %d values, want %d", len(t), s.Attrs)
		}
	}
	return nil
}

// Resume continues an SQ-DB-SKY run from the checkpoint, spending at most
// opt.MaxQueries queries in this session (0 = run to completion). It
// returns the cumulative result so far; Result.Complete (equivalently
// s.Done()) tells whether the skyline is final. The session is updated in
// place and stays serializable between calls. A database whose domain
// ends at MaxInt is rejected (see checkDomains) before any query.
func (s *Session) Resume(db Interface, opt Options) (Result, error) {
	if err := s.check(); err != nil {
		return Result{}, err
	}
	if db.NumAttrs() != s.Attrs {
		return Result{}, fmt.Errorf("core: session has %d attributes, database %d", s.Attrs, db.NumAttrs())
	}
	if err := checkDomains(db); err != nil {
		return Result{}, err
	}
	db, opt = prepare(db, opt) // sessions honor the cache; the walk itself stays sequential
	c := newCtx(db, opt)
	for _, t := range s.Skyline {
		c.merge(t)
	}
	c.trace = nil // seeding is not discovery

	s.base, s.since = s.Queries, 0 // cost of previous sessions; c.queries counts this slice
	w := newTreeWalker(c, nil, allAttrs(c.m), false)
	if s.OnCheckpoint != nil {
		w.ckpt = s
	}
	err := w.runQueue(&s.Pending)
	if errors.Is(err, errCheckpointHook) {
		return s.snapshot(c, err), err // a failed mid-run hook ends the call
	}
	// A budget stop or cancellation leaves the unanswered node pending,
	// and the session remains resumable.
	err = anytimeErr(err)
	out := s.snapshot(c, err)
	if s.OnCheckpoint != nil { // the promised final hook, even on hard failures
		if herr := s.OnCheckpoint(s); herr != nil {
			// Surface the failed final checkpoint even on a budget stop —
			// the caller must not believe the tail of the run was
			// persisted. errors.Join keeps both conditions matchable.
			err = errors.Join(fmt.Errorf("%w: %w", errCheckpointHook, herr), err)
		}
	}
	return out, err
}

// errCheckpointHook wraps an OnCheckpoint error.
var errCheckpointHook = errors.New("core: checkpoint hook")

// answered runs after each answered node of the Resume walk: every
// CheckpointEvery answers it syncs the session and calls OnCheckpoint.
func (s *Session) answered(c *ctx) error {
	if s.since++; s.since < max(s.CheckpointEvery, 1) {
		return nil
	}
	s.since = 0
	s.sync(c)
	if err := s.OnCheckpoint(s); err != nil {
		return fmt.Errorf("%w: %w", errCheckpointHook, err)
	}
	return nil
}

// sync folds the context back into the session: after it returns the
// session is a consistent, serializable checkpoint of the run so far.
// It is idempotent (Queries is recomputed from the slice base, not
// accumulated), so mid-run checkpoints and the final fold compose.
func (s *Session) sync(c *ctx) {
	s.Skyline = c.skySnapshot()
	s.Queries = s.base + c.queries
}

// snapshot is sync plus the cumulative Result.
func (s *Session) snapshot(c *ctx, err error) Result {
	s.sync(c)
	return Result{
		Skyline:  append([][]int(nil), s.Skyline...),
		Queries:  s.Queries,
		Trace:    c.trace,
		Complete: err == nil && len(s.Pending) == 0,
	}
}
