package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hiddensky/internal/answer"
	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// answerDataset builds a small RQ-capable dataset with distinct value
// combinations (the skyband identity's general positioning).
func answerDataset(seed int64, n int) datagen.Dataset {
	d := datagen.AntiCorrelated(seed, n, 3, 80).WithCaps(hidden.RQ)
	seen := map[string]bool{}
	var rows [][]int
	for _, t := range d.Data {
		k := fmt.Sprint(t)
		if !seen[k] {
			seen[k] = true
			rows = append(rows, t)
		}
	}
	d.Data = rows
	return d
}

func newAnswerManager(t *testing.T, cfg Config, seed int64, n int) (*Manager, datagen.Dataset) {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := answerDataset(seed, n)
	db, err := hidden.New(d.Config(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddStore("shop", db); err != nil {
		t.Fatal(err)
	}
	return m, d
}

// bruteScores returns the k best weighted-sum scores over all data.
func bruteScores(data [][]int, w []float64, k int) []float64 {
	scores := make([]float64, len(data))
	for i, tu := range data {
		for a, wa := range w {
			scores[i] += wa * float64(tu[a])
		}
	}
	sort.Float64s(scores)
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}

// The flagship acceptance path: a band job completes, the answer index
// hot-swaps in, and /v1/answer/topk exactly matches brute-force top-k
// over the original dataset for arbitrary weight vectors.
func TestAnswerTopKMatchesBruteForceOverHTTP(t *testing.T) {
	m, d := newAnswerManager(t, Config{}, 31, 400)
	defer m.Close(context.Background())

	if _, err := m.AnswerStore("shop"); err == nil || !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("before any job: want ErrNoAnswer, got %v", err)
	}

	const bandK = 5
	st, err := m.Submit(JobSpec{Store: "shop", Band: bandK})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m, st.ID, 30*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("band job ended %s complete=%v err=%q", final.State, final.Complete, final.Error)
	}

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range [][]float64{
		{1, 1, 1},
		{3.5, 0.25, 1.75},
		{0, 2, 0.01},
		{10, 0, 0},
	} {
		for _, k := range []int{1, 3, bandK} {
			resp, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: k})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.Exact || resp.BandK != bandK {
				t.Fatalf("w=%v k=%d: exact=%v bandK=%d", w, k, resp.Exact, resp.BandK)
			}
			want := bruteScores(d.Data, w, k)
			if len(resp.Scores) != len(want) {
				t.Fatalf("w=%v k=%d: %d answers, want %d", w, k, len(resp.Scores), len(want))
			}
			for i := range want {
				if math.Abs(resp.Scores[i]-want[i]) > 1e-9 {
					t.Fatalf("w=%v k=%d rank %d: answer %v, brute force %v",
						w, k, i, resp.Scores[i], want[i])
				}
			}
		}
	}

	// k beyond the band level is served best-effort, marked inexact.
	resp, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: []float64{1, 1, 1}, K: bandK + 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Exact {
		t.Fatal("k > bandK must not claim exactness")
	}

	// Subspace skyline and dominance over the same index.
	sky, err := c.AnswerSkyline(AnswerSkylineRequest{Store: "shop", Attrs: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sky.Tuples) == 0 {
		t.Fatal("empty subspace skyline")
	}
	dom, err := c.AnswerDominates(AnswerDominatesRequest{Store: "shop", Tuple: []int{1000, 1000, 1000}})
	if err != nil || !dom.Dominated || !skyline.Dominates(dom.Witness, []int{1000, 1000, 1000}) {
		t.Fatalf("far-off tuple should be dominated: %+v err=%v", dom, err)
	}

	// Listings and health reflect the loaded index.
	answers, err := c.Answers()
	if err != nil {
		t.Fatal(err)
	}
	if st := answers["shop"]; !st.Loaded || st.Info == nil || st.Info.BandK != bandK || st.Job != final.ID {
		t.Fatalf("answer listing: %+v", answers["shop"])
	}
	h, err := c.Health()
	if err != nil || len(h.Answers) != 1 || h.Answers[0] != "shop" {
		t.Fatalf("health answers: %+v err=%v", h.Answers, err)
	}
}

// Answer HTTP error mapping: unknown store 404, no index yet 409, bad
// queries 400.
func TestAnswerHTTPErrors(t *testing.T) {
	m, _ := newAnswerManager(t, Config{}, 32, 60)
	defer m.Close(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	c, err := Dial(srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := c.AnswerTopK(AnswerTopKRequest{Store: "nope", Weights: []float64{1, 1, 1}, K: 1}); err == nil {
		t.Fatal("unknown store accepted")
	}
	if _, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: []float64{1, 1, 1}, K: 1}); err == nil {
		t.Fatal("no index yet: should answer 409")
	}

	st, err := m.Submit(JobSpec{Store: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 30*time.Second)
	if _, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: []float64{-1, 1, 1}, K: 1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: []float64{1, 1, 1}, K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	// A plain skyline job serves exact top-1 answers.
	resp, err := c.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: []float64{1, 2, 3}, K: 1})
	if err != nil || !resp.Exact || resp.BandK != 1 {
		t.Fatalf("top-1 after skyline job: %+v err=%v", resp, err)
	}
}

// Band job validation.
func TestBandSpecValidation(t *testing.T) {
	m, _ := newAnswerManager(t, Config{}, 33, 40)
	defer m.Close(context.Background())
	for _, spec := range []JobSpec{
		{Store: "shop", Band: -1},
		{Store: "shop", Band: 2, Resumable: true},
		{Stores: []string{"shop"}, Band: 2},
		{Store: "shop", Band: 2, Algo: "mq"},
	} {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("spec %+v accepted", spec)
		}
	}
}

// A daemon restart rebuilds the answer index from the snapshot store:
// the new process serves identical answers without one upstream query.
func TestAnswerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m1, d := newAnswerManager(t, Config{SnapshotDir: dir}, 34, 300)
	st, err := m1.Submit(JobSpec{Store: "shop", Band: 3})
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, m1, st.ID, 30*time.Second)
	if final.State != StateDone || !final.Complete {
		t.Fatalf("band job ended %s (%s)", final.State, final.Error)
	}
	w := []float64{2, 1, 0.5}
	before, err := m1.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// New process, same snapshots; the store backend would fail loudly if
	// queried, proving answers come from the snapshot alone.
	m2, err := NewManager(Config{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db, err := hidden.New(d.Config(10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.AddStore("shop", poisonDB{db}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer m2.Close(context.Background())
	after, err := m2.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Exact || len(after.Scores) != len(before.Scores) {
		t.Fatalf("restart answer: %+v", after)
	}
	for i := range before.Scores {
		if before.Scores[i] != after.Scores[i] {
			t.Fatalf("rank %d: %v before restart, %v after", i, before.Scores[i], after.Scores[i])
		}
	}
	want := bruteScores(d.Data, w, 3)
	for i := range want {
		if math.Abs(after.Scores[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d after restart: %v, want %v", i, after.Scores[i], want[i])
		}
	}
}

// Hot-swap under fire: concurrent answer queries while fresh discovery
// jobs replace the index (run with -race).
func TestAnswerHotSwapUnderConcurrentQueries(t *testing.T) {
	m, _ := newAnswerManager(t, Config{}, 35, 200)
	defer m.Close(context.Background())
	st, err := m.Submit(JobSpec{Store: "shop", Band: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 30*time.Second)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := []float64{1, 2, 3}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := m.AnswerTopK(AnswerTopKRequest{Store: "shop", Weights: w, K: 2})
				if err != nil || len(resp.Tuples) == 0 {
					t.Errorf("answer during swap: %d tuples, err %v", len(resp.Tuples), err)
					return
				}
				if _, err := m.AnswerDominates(AnswerDominatesRequest{Store: "shop", Tuple: []int{500, 500, 500}}); err != nil {
					t.Errorf("dominates during swap: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		st, err := m.Submit(JobSpec{Store: "shop", Band: 2 + i%2})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, m, st.ID, 30*time.Second)
	}
	close(stop)
	wg.Wait()
}

// poisonDB fails every query: restart tests use it to prove answers
// are served from snapshots, never the upstream store.
type poisonDB struct{ core.Interface }

func (p poisonDB) Query(q query.Q) (hidden.Result, error) {
	return hidden.Result{}, fmt.Errorf("poisonDB: upstream query issued on the answer read path")
}

// With concurrent jobs against one store, a slow older job finishing
// after a newer one must not overwrite the newer index (highest job id
// wins, matching Recover's rebuild policy).
func TestAnswerPublishOrdering(t *testing.T) {
	older, err := answer.Build([][]int{{1, 1, 1}}, answer.Options{BandK: 1})
	if err != nil {
		t.Fatal(err)
	}
	newer, err := answer.Build([][]int{{2, 2, 2}}, answer.Options{BandK: 10})
	if err != nil {
		t.Fatal(err)
	}
	var e answerEntry
	if !e.publish(newer, "j000002") {
		t.Fatal("first publish refused")
	}
	if e.publish(older, "j000001") {
		t.Fatal("older job overwrote a newer index")
	}
	if got := e.handle.Load(); got.BandK() != 10 {
		t.Fatalf("serving bandK %d, want the newer index's 10", got.BandK())
	}
	if id, _ := e.job.Load().(string); id != "j000002" {
		t.Fatalf("attribution %q, want j000002", id)
	}
	// A re-run with the same id (Recover republish) still goes through.
	if !e.publish(newer, "j000002") {
		t.Fatal("same-id republish refused")
	}
}

// TestAnswerOverflowingWeightsAre400: finite weights whose scores
// overflow float64 answer 400 on topk and topk_batch, never a 500 from
// failing to encode an Inf score.
func TestAnswerOverflowingWeightsAre400(t *testing.T) {
	m, _ := newAnswerManager(t, Config{}, 32, 60)
	defer m.Close(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	st, err := m.Submit(JobSpec{Store: "shop"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID, 30*time.Second)
	for path, body := range map[string]string{
		"/v1/answer/topk":       `{"store":"shop","weights":[1e308,1e308,1e308],"k":1}`,
		"/v1/answer/topk_batch": `{"store":"shop","queries":[{"weights":[1,1,1],"k":1},{"weights":[1e308,1e308,1e308],"k":1}]}`,
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", path, resp.StatusCode, msg)
		}
	}
}
