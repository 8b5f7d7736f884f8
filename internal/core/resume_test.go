package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/qcache"
	"hiddensky/internal/skyline"
)

func TestSessionResumeMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for trial := 0; trial < 10; trial++ {
		data := randData(rng, 100+rng.Intn(200), 3, 10)
		k := 1 + rng.Intn(4)

		oneShot, err := sqDBSky(mkDB(t, data, capsAll(3, hidden.SQ), k, hidden.SumRank{}), Options{})
		if err != nil {
			t.Fatal(err)
		}

		// Resume in daily slices of 7 queries against a fresh interface
		// each day (as a new API key would be).
		s := NewSession(mkDB(t, data, capsAll(3, hidden.SQ), k, hidden.SumRank{}))
		var last Result
		days := 0
		for !s.Done() {
			db := mkDB(t, data, capsAll(3, hidden.SQ), k, hidden.SumRank{})
			res, err := s.Resume(db, Options{MaxQueries: 7})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			last = res
			days++
			if days > 10000 {
				t.Fatal("resume does not converge")
			}
		}
		if !last.Complete {
			t.Fatal("finished session not complete")
		}
		if ok, diff := sameTupleSet(last.Skyline, oneShot.Skyline); !ok {
			t.Fatalf("trial %d: resumed skyline differs: %s", trial, diff)
		}
		if last.Queries != oneShot.Queries {
			t.Fatalf("trial %d: resumed cost %d, one-shot %d (no query may be repeated or skipped)",
				trial, last.Queries, oneShot.Queries)
		}
	}
}

func TestSessionSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := randData(rng, 300, 3, 12)
	mk := func() *hidden.DB { return mkDB(t, data, capsAll(3, hidden.SQ), 2, hidden.SumRank{}) }

	s := NewSession(mk())
	if _, err := s.Resume(mk(), Options{MaxQueries: 5}); !errors.Is(err, ErrBudget) {
		t.Fatalf("expected budget stop, got %v", err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSession(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(restored.Pending) != fmt.Sprint(s.Pending) ||
		fmt.Sprint(restored.Skyline) != fmt.Sprint(s.Skyline) ||
		restored.Queries != s.Queries {
		t.Fatal("round trip lost state")
	}
	// Drive the restored session to completion and verify.
	var last Result
	for !restored.Done() {
		last, err = restored.Resume(mk(), Options{MaxQueries: 20})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
	}
	want := skyline.ComputeTuples(data)
	if ok, diff := sameTupleSet(last.Skyline, want); !ok {
		t.Fatal(diff)
	}
}

func TestSessionPartialResultsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	data := randData(rng, 400, 3, 15)
	truth := tupleSet(skyline.ComputeTuples(data))
	s := NewSession(mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{}))
	res, err := s.Resume(mkDB(t, data, capsAll(3, hidden.SQ), 3, hidden.SumRank{}), Options{MaxQueries: 9})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res.Complete || s.Done() {
		t.Fatal("budgeted session claims completion")
	}
	for _, tup := range res.Skyline {
		if !truth[fmt.Sprint(tup)] {
			t.Fatalf("non-skyline tuple %v in checkpoint", tup)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	data := [][]int{{1, 2}, {2, 1}}
	db2 := mkDB(t, data, capsAll(2, hidden.SQ), 1, hidden.SumRank{})
	db3 := mkDB(t, [][]int{{1, 2, 3}}, capsAll(3, hidden.SQ), 1, hidden.SumRank{})
	s := NewSession(db2)
	if _, err := s.Resume(db3, Options{}); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	for _, bad := range []string{
		``,
		`{"attrs":0}`,
		`{"attrs":2,"pending":[[1,2,3]]}`,
	} {
		if _, err := ReadSession(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("session %q accepted", bad)
		}
	}
}

// TestSessionCheckRejectsMalformed: a checkpoint no run could have
// written is refused by ReadSession and, decoded by other means, by
// Resume — with an error and no query, never a panic mid-walk.
func TestSessionCheckRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, json string }{
		{"short pending node", `{"attrs":2,"pending":[[6]],"queries":3}`},
		{"long pending node", `{"attrs":2,"pending":[[6,6,6]]}`},
		{"long skyline tuple", `{"attrs":2,"pending":[[6,6]],"skyline":[[0,0,0]]}`},
		{"short skyline tuple", `{"attrs":2,"pending":[],"skyline":[[0]]}`},
		{"negative queries", `{"attrs":2,"pending":[[6,6]],"queries":-1}`},
		{"no attributes", `{"attrs":0}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadSession(bytes.NewBufferString(tc.json)); err == nil {
				t.Error("ReadSession accepted it")
			}
			var s Session
			if err := json.Unmarshal([]byte(tc.json), &s); err != nil {
				t.Fatal(err)
			}
			db := mkDB(t, [][]int{{1, 2}, {2, 1}}, capsAll(2, hidden.SQ), 1, hidden.SumRank{})
			if _, err := s.Resume(db, Options{}); err == nil {
				t.Error("Resume accepted it")
			}
			if n := db.QueriesIssued(); n != 0 {
				t.Errorf("Resume issued %d queries", n)
			}
		})
	}
}

func TestSessionWorksOnRateLimitedInterface(t *testing.T) {
	// The realistic loop: the site enforces the quota, not the client.
	rng := rand.New(rand.NewSource(73))
	data := randData(rng, 250, 2, 20)
	s := NewSession(mkDB(t, data, capsAll(2, hidden.SQ), 2, hidden.SumRank{}))
	days := 0
	var last Result
	for !s.Done() {
		db, err := hidden.New(hidden.Config{
			Data: data, Caps: capsAll(2, hidden.SQ), K: 2, QueryLimit: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		last, err = s.Resume(db, Options{})
		if err != nil && !errors.Is(err, ErrBudget) {
			t.Fatal(err)
		}
		if days++; days > 1000 {
			t.Fatal("no convergence under site-side rate limit")
		}
	}
	want := skyline.ComputeTuples(data)
	if ok, diff := sameTupleSet(last.Skyline, want); !ok {
		t.Fatal(diff)
	}
}

// TestSessionResumeWithParallelismAndCache: sessions accept the full
// Options surface — Parallelism > 1 (the FIFO replay itself stays
// sequential, so the checkpoint stays exact) and a shared Cache — and
// still reproduce the uninterrupted run's skyline and exact query
// accounting across save/resume round-trips.
func TestSessionResumeWithParallelismAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 5; trial++ {
		data := randData(rng, 150+rng.Intn(250), 3, 10)
		k := 1 + rng.Intn(4)
		mk := func() *hidden.DB { return mkDB(t, data, capsAll(3, hidden.SQ), k, hidden.SumRank{}) }

		oneShot, err := sqDBSky(mk(), Options{})
		if err != nil {
			t.Fatal(err)
		}

		cache := qcache.New(qcache.Config{MaxEntries: 256})
		s := NewSession(mk())
		var last Result
		for rounds := 0; !s.Done(); rounds++ {
			if rounds > 10000 {
				t.Fatal("resume does not converge")
			}
			// Serialize and reload between every slice: the options must
			// not leak unserializable state into the checkpoint.
			var buf bytes.Buffer
			if err := s.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if s, err = ReadSession(&buf); err != nil {
				t.Fatal(err)
			}
			res, err := s.Resume(mk(), Options{MaxQueries: 9, Parallelism: 4, Cache: cache})
			if err != nil && !errors.Is(err, ErrBudget) {
				t.Fatal(err)
			}
			last = res
		}
		if !last.Complete {
			t.Fatal("finished session not complete")
		}
		if ok, diff := sameTupleSet(last.Skyline, oneShot.Skyline); !ok {
			t.Fatalf("trial %d: resumed skyline differs: %s", trial, diff)
		}
		if last.Queries != oneShot.Queries {
			t.Fatalf("trial %d: resumed cost %d, one-shot %d (exact accounting required)",
				trial, last.Queries, oneShot.Queries)
		}
	}
}

// TestSessionCheckpointHook: the hook fires on its interval with the
// session in a consistent, serializable state — a checkpoint taken
// mid-run restores into a session that finishes with the one-shot
// skyline and exact cumulative query count.
func TestSessionCheckpointHook(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	data := randData(rng, 800, 4, 40)
	mk := func() *hidden.DB { return mkDB(t, data, capsAll(4, hidden.SQ), 1, hidden.SumRank{}) }

	oneShot, err := sqDBSky(mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const stopAt = 25
	if oneShot.Queries <= stopAt+5 {
		t.Fatalf("dataset too easy for the test: one-shot cost %d", oneShot.Queries)
	}

	errStop := errors.New("simulated crash")
	s := NewSession(mk())
	s.CheckpointEvery = 1
	var hookCalls int
	var lastCkpt []byte
	s.OnCheckpoint = func(sess *Session) error {
		hookCalls++
		var buf bytes.Buffer
		if err := sess.Save(&buf); err != nil {
			return err
		}
		lastCkpt = buf.Bytes()
		if hookCalls == stopAt {
			return errStop
		}
		return nil
	}
	if _, err := s.Resume(mk(), Options{}); !errors.Is(err, errStop) {
		t.Fatalf("Resume = %v, want the hook's error", err)
	}
	if hookCalls != stopAt {
		t.Fatalf("hook fired %d times, want %d", hookCalls, stopAt)
	}

	restored, err := ReadSession(bytes.NewReader(lastCkpt))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Queries != stopAt {
		t.Fatalf("checkpoint recorded %d queries, want %d (every=1)", restored.Queries, stopAt)
	}
	var fired int
	restored.CheckpointEvery = 10
	restored.OnCheckpoint = func(*Session) error { fired++; return nil }
	last, err := restored.Resume(mk(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fired == 0 {
		t.Fatal("re-installed hook never fired")
	}
	if ok, diff := sameTupleSet(last.Skyline, oneShot.Skyline); !ok {
		t.Fatal(diff)
	}
	if last.Queries != oneShot.Queries {
		t.Fatalf("crash-restored cost %d, one-shot %d", last.Queries, oneShot.Queries)
	}
}

// FuzzReadSession feeds ReadSession arbitrary checkpoints. It must never
// panic; an accepted session must survive Save and ReadSession unchanged,
// and resuming it on a small database (within a query budget) must not
// panic either. Seeds are under testdata/fuzz.
func FuzzReadSession(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSession(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.Save(&first); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSession(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved session does not read back: %v\n%s", err, first.Bytes())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the session:\n%s\n%s", first.Bytes(), second.Bytes())
		}
		if s.Attrs > 4 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		db := mkDB(t, randData(rng, 40, s.Attrs, 8), capsAll(s.Attrs, hidden.SQ), 3, hidden.SumRank{})
		s.Resume(db, Options{MaxQueries: 64})
	})
}
