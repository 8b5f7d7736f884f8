package crawl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/skyline"
)

func capsRQ(m int) []hidden.Capability {
	out := make([]hidden.Capability, m)
	for i := range out {
		out[i] = hidden.RQ
	}
	return out
}

func randData(rng *rand.Rand, n, m, domain int) [][]int {
	data := make([][]int, n)
	for i := range data {
		t := make([]int, m)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		data[i] = t
	}
	return data
}

func valueSet(ts [][]int) map[string]bool {
	s := map[string]bool{}
	for _, t := range ts {
		s[fmt.Sprint(t)] = true
	}
	return s
}

func TestCrawlComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 5, 20} {
			for _, domain := range []int{3, 17, 100} {
				n := 10 + rng.Intn(300)
				data := randData(rng, n, m, domain)
				db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(m), K: k})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Crawl(db, Options{})
				if err != nil {
					t.Fatalf("m=%d k=%d dom=%d: %v", m, k, domain, err)
				}
				if !res.Complete {
					t.Fatalf("m=%d k=%d dom=%d: not complete", m, k, domain)
				}
				want, got := valueSet(data), valueSet(res.Tuples)
				for v := range want {
					if !got[v] {
						t.Fatalf("m=%d k=%d dom=%d: missing tuple %s", m, k, domain, v)
					}
				}
				for v := range got {
					if !want[v] {
						t.Fatalf("m=%d k=%d dom=%d: phantom tuple %s", m, k, domain, v)
					}
				}
			}
		}
	}
}

func TestCrawlSkylineMatchesGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randData(rng, 400, 3, 30)
	db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(3), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, sky, err := CrawlSkyline(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := valueSet(skyline.ComputeTuples(data))
	got := valueSet(sky)
	if len(want) != len(got) {
		t.Fatalf("skyline size %d, want %d", len(got), len(want))
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("missing skyline tuple %s", v)
		}
	}
}

func TestCrawlRejectsWeakInterfaces(t *testing.T) {
	data := [][]int{{1, 2}, {2, 1}}
	for _, caps := range [][]hidden.Capability{
		{hidden.SQ, hidden.RQ},
		{hidden.RQ, hidden.PQ},
	} {
		db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Crawl(db, Options{}); err == nil {
			t.Fatalf("caps %v: crawl should refuse non-RQ interfaces", caps)
		}
	}
}

func TestCrawlBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randData(rng, 500, 3, 40)
	db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(3), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crawl(db, Options{MaxQueries: 7})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res.Complete {
		t.Fatal("budget-cut crawl marked complete")
	}
	if res.Queries > 7 {
		t.Fatalf("issued %d queries under budget 7", res.Queries)
	}
	all := valueSet(data)
	for _, tup := range res.Tuples {
		if !all[fmt.Sprint(tup)] {
			t.Fatalf("phantom tuple %v", tup)
		}
	}
}

func TestCrawlRateLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randData(rng, 300, 2, 25)
	db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(2), K: 1, QueryLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crawl(db, Options{})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if res.Complete {
		t.Fatal("rate-limited crawl marked complete")
	}
}

func TestCrawlDuplicateHeavy(t *testing.T) {
	// More than k tuples share one value combination; the crawl must
	// terminate and cover every distinct value combination.
	data := make([][]int, 0, 60)
	for i := 0; i < 40; i++ {
		data = append(data, []int{5, 5})
	}
	for i := 0; i < 20; i++ {
		data = append(data, []int{i, 20 - i})
	}
	db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(2), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Crawl(db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := valueSet(res.Tuples)
	for _, tup := range data {
		if !got[fmt.Sprint(tup)] {
			t.Fatalf("missing value combination %v", tup)
		}
	}
}

func TestCrawlOnBatchObservesEveryTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randData(rng, 200, 2, 15)
	db, err := hidden.New(hidden.Config{Data: data, Caps: capsRQ(2), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	lastQ := 0
	res, err := Crawl(db, Options{OnBatch: func(queries int, tuples [][]int) {
		if queries < lastQ {
			t.Fatalf("query counter went backwards: %d after %d", queries, lastQ)
		}
		lastQ = queries
		if len(tuples) == 0 {
			t.Fatal("OnBatch fired with no tuples")
		}
		for _, tup := range tuples {
			seen[fmt.Sprint(tup)] = true
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range res.Tuples {
		if !seen[fmt.Sprint(tup)] {
			t.Fatalf("tuple %v crawled but never observed by OnBatch", tup)
		}
	}
}

// TestCrawlIntEdgeDomains crawls domains whose width does not fit in an
// int: one ending at MaxInt and one spanning all of int. The split must
// still find the widest attribute and halve it, so every tuple comes
// back, not just the top-k of the whole box.
func TestCrawlIntEdgeDomains(t *testing.T) {
	for _, tc := range []struct {
		name string
		data [][]int
	}{
		{"ends at MaxInt", [][]int{{0, 0}, {1, 0}, {2, 0}, {math.MaxInt, 0}}},
		{"all of int", [][]int{{math.MinInt, 0}, {-1, 0}, {0, 0}, {1, 0}, {math.MaxInt, 0}}},
	} {
		db, err := hidden.New(hidden.Config{Data: tc.data, Caps: capsRQ(2), K: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Crawl(db, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Complete || len(res.Tuples) != len(tc.data) {
			t.Fatalf("%s: complete=%v with %d of %d tuples after %d queries",
				tc.name, res.Complete, len(res.Tuples), len(tc.data), res.Queries)
		}
		want, got := valueSet(tc.data), valueSet(res.Tuples)
		for v := range want {
			if !got[v] {
				t.Fatalf("%s: missing tuple %s", tc.name, v)
			}
		}
	}
}
