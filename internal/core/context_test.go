package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/skyline"
)

// TestDiscoverContextCancellation: cancelling Options.Ctx mid-run stops
// further queries promptly and surfaces a sound partial result whose
// error matches both ErrBudget (the anytime contract) and the context
// error (the cause).
func TestDiscoverContextCancellation(t *testing.T) {
	for _, seed := range []int64{90, 91, 92, 93} {
		rng := rand.New(rand.NewSource(seed))
		data := randData(rng, 2000, 4, 30)
		truth := tupleSet(skyline.ComputeTuples(data))
		for _, stopAt := range []int{1, 4, 10, 25} {
			for _, par := range []int{1, 4} {
				db := mkDB(t, data, capsAll(4, hidden.RQ), 5, hidden.SumRank{})
				ctx, cancel := context.WithCancel(context.Background())
				var events atomic.Int64
				opt := Options{
					Parallelism: par,
					Ctx:         ctx,
					Progress: func(ev ProgressEvent) {
						if events.Add(1) == int64(stopAt) {
							cancel()
						}
					},
				}
				res, err := Run(db, Request{}, opt)
				cancel()
				where := fmt.Sprintf("seed=%d stopAt=%d parallel=%d", seed, stopAt, par)
				if !errors.Is(err, ErrBudget) || !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want ErrBudget wrapping context.Canceled", where, err)
				}
				if res.Complete {
					t.Fatalf("%s: cancelled run claims completion", where)
				}
				// At most the in-flight queries finish after the cancel.
				if res.Queries > stopAt+par {
					t.Fatalf("%s: %d queries issued after cancelling at %d", where, res.Queries, stopAt)
				}
				for _, tup := range res.Skyline {
					if !truth[fmt.Sprint(tup)] {
						t.Fatalf("%s: non-skyline tuple %v in partial result", where, tup)
					}
				}
			}
		}
	}
}

// TestDiscoverProgressEvents: the Progress hook sees one event per
// counted query, ending at the run's final accounting.
func TestDiscoverProgressEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	data := randData(rng, 400, 3, 12)
	db := mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{})
	var events, last atomic.Int64
	res, err := sqDBSky(db, Options{Progress: func(ev ProgressEvent) {
		events.Add(1)
		last.Store(int64(ev.Queries))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if int(events.Load()) != res.Queries {
		t.Fatalf("%d progress events for %d queries", events.Load(), res.Queries)
	}
	if int(last.Load()) != res.Queries {
		t.Fatalf("last event reported %d queries, run counted %d", last.Load(), res.Queries)
	}
}
