package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hiddensky/internal/query"
)

// Session is a checkpoint of an interrupted SQ-DB-SKY run, designed for
// the paper's operating reality: per-day query quotas (Google's QPX
// allowed 50 free queries per day). Algorithm 1's state is just its FIFO
// queue of pending node queries plus the tuples confirmed so far — both
// plain data — so discovery can stop at the quota, serialize, and resume
// tomorrow without repeating a single query.
//
// Sessions apply to the SQ algorithm (which also runs on RQ interfaces);
// its queue-based traversal makes the checkpoint exact.
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
}

// NewSession starts a fresh checkpointable run for db.
func NewSession(db Interface) *Session {
	m := db.NumAttrs()
	root := make([]int, m)
	for a := 0; a < m; a++ {
		root[a] = db.Domain(a).Hi + 1
	}
	return &Session{Pending: [][]int{root}, Attrs: m}
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
// place and stays serializable between calls.
func (s *Session) Resume(db Interface, opt Options) (Result, error) {
	if err := s.check(); err != nil {
		return Result{}, err
	}
	if db.NumAttrs() != s.Attrs {
		return Result{}, fmt.Errorf("core: session has %d attributes, database %d", s.Attrs, db.NumAttrs())
	}
	db, opt = prepare(db, opt) // sessions honor the cache; the FIFO replay itself stays sequential
	c := newCtx(db, opt)
	for _, t := range s.Skyline {
		c.merge(t)
	}
	c.trace = nil // seeding is not discovery

	base := s.Queries // cost of previous sessions; c.queries counts this slice
	every := s.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	sinceCheckpoint := 0

	budgetErr := error(nil)
	for len(s.Pending) > 0 {
		ub := s.Pending[0]
		q := sessionQuery(c, ub)
		res, err := c.issue(q)
		if errors.Is(err, ErrBudget) {
			budgetErr = err
			break // the node stays pending for the next session
		}
		if err != nil {
			// A cancellation that surfaced from the backend itself (e.g.
			// an aborted in-flight HTTP request) is normalized to the
			// same anytime shape as the pre-query ctx check: the node
			// stays pending and the session remains resumable.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				budgetErr = fmt.Errorf("%w: %w", ErrBudget, err)
				break
			}
			out := s.snapshot(c, base, err)
			if s.OnCheckpoint != nil { // the promised final hook, even on hard failures
				if herr := s.OnCheckpoint(s); herr != nil {
					err = errors.Join(fmt.Errorf("core: checkpoint hook: %w", herr), err)
				}
			}
			return out, err
		}
		s.Pending = s.Pending[1:]
		c.mergeAll(res.Tuples)
		if c.overflowed(res) {
			top := res.Tuples[0]
			for a := 0; a < s.Attrs; a++ {
				kid := append([]int(nil), ub...)
				if top[a] < kid[a] {
					kid[a] = top[a]
				}
				s.Pending = append(s.Pending, kid)
			}
		}
		if s.OnCheckpoint != nil {
			if sinceCheckpoint++; sinceCheckpoint >= every {
				sinceCheckpoint = 0
				s.sync(c, base)
				if err := s.OnCheckpoint(s); err != nil {
					herr := fmt.Errorf("core: checkpoint hook: %w", err)
					return s.snapshot(c, base, herr), herr
				}
			}
		}
	}
	out := s.snapshot(c, base, budgetErr)
	if s.OnCheckpoint != nil {
		if err := s.OnCheckpoint(s); err != nil {
			// Surface the failed final checkpoint even on a budget stop —
			// the caller must not believe the tail of the run was
			// persisted. errors.Join keeps both conditions matchable.
			return out, errors.Join(fmt.Errorf("core: checkpoint hook: %w", err), budgetErr)
		}
	}
	return out, budgetErr
}

// sync folds the context back into the session: after it returns the
// session is a consistent, serializable checkpoint of the run so far.
// It is idempotent (Queries is recomputed from the slice base, not
// accumulated), so mid-run checkpoints and the final fold compose.
func (s *Session) sync(c *ctx, base int) {
	s.Skyline = c.skySnapshot()
	s.Queries = base + c.queries
}

// snapshot is sync plus the cumulative Result.
func (s *Session) snapshot(c *ctx, base int, err error) Result {
	s.sync(c, base)
	return Result{
		Skyline:  append([][]int(nil), s.Skyline...),
		Queries:  s.Queries,
		Trace:    c.trace,
		Complete: err == nil && len(s.Pending) == 0,
	}
}

func sessionQuery(c *ctx, ub []int) query.Q {
	var q query.Q
	for a, v := range ub {
		if v <= c.domains[a].Hi {
			q = append(q, query.Predicate{Attr: a, Op: query.LT, Value: v})
		}
	}
	return q
}
