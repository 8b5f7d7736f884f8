package core

import (
	"math"
	"math/rand"
	"testing"

	"hiddensky/internal/analysis"
	"hiddensky/internal/hidden"
)

// TestAverageCaseRecurrenceMonteCarlo validates the paper's central
// average-case result empirically: for a database whose tuples are all on
// the skyline (an antichain with tie-free attributes), the expected
// SQ-DB-SKY query cost under a uniformly random domination-consistent
// ranking is E(C_s) of equation (4) — a function of m and |S| only.
//
// On an antichain the dominance order has no constraints, so a random
// linear extension is a uniform permutation and every query's top-1 is
// uniform over its matching skyline tuples — exactly the model of §3.2.
func TestAverageCaseRecurrenceMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo simulation skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(77))
	for _, tc := range []struct {
		m, s, trials int
		tol          float64
	}{
		{2, 1, 200, 0.02}, // deterministic: every ranking costs m+1
		{2, 4, 400, 0.10},
		{2, 9, 300, 0.10},
		{3, 5, 400, 0.12},
		{4, 4, 400, 0.12},
	} {
		data := antichain(rng, tc.s, tc.m)
		want := analysis.AvgCostRecurrence(tc.m, tc.s)
		sum := 0.0
		for trial := 0; trial < tc.trials; trial++ {
			db, err := hidden.New(hidden.Config{
				Data: data,
				Caps: capsAll(tc.m, hidden.SQ),
				K:    1,
				Rank: hidden.RandomExtensionRank{Seed: int64(trial + 1)},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sqDBSky(db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Skyline) != tc.s {
				t.Fatalf("m=%d s=%d: discovered %d skyline tuples", tc.m, tc.s, len(res.Skyline))
			}
			sum += float64(res.Queries)
		}
		mean := sum / float64(tc.trials)
		if rel := math.Abs(mean-want) / want; rel > tc.tol {
			t.Errorf("m=%d s=%d: mean cost %.2f vs E(C_s)=%.2f (rel err %.1f%% > %.0f%%)",
				tc.m, tc.s, mean, want, 100*rel, 100*tc.tol)
		}
	}
}

// antichain builds s mutually non-dominated tuples over m attributes with
// distinct values on every attribute: attribute 0 ascends while attribute
// 1 descends (guaranteeing incomparability), and any further attributes
// carry random distinct values.
func antichain(rng *rand.Rand, s, m int) [][]int {
	data := make([][]int, s)
	perms := make([][]int, m)
	for a := 2; a < m; a++ {
		perms[a] = rng.Perm(s)
	}
	for i := 0; i < s; i++ {
		tup := make([]int, m)
		tup[0] = i
		if m > 1 {
			tup[1] = s - 1 - i
		}
		for a := 2; a < m; a++ {
			tup[a] = perms[a][i]
		}
		data[i] = tup
	}
	return data
}

// TestRealRankingBeatsAverageCase checks the paper's final §3.2 claim: a
// "reasonable" ranking function (here: sum of attributes) costs less than
// the random-ranking average, because top-ranked tuples tend to win on
// many attributes at once, emptying more branches.
func TestRealRankingBeatsAverageCase(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	worse := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		s := 5 + rng.Intn(8)
		data := antichain(rng, s, 3)
		db := mkDB(t, data, capsAll(3, hidden.SQ), 1, hidden.SumRank{})
		res, err := sqDBSky(db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Queries) > analysis.AvgCostRecurrence(3, s) {
			worse++
		}
	}
	if worse > trials/4 {
		t.Errorf("sum ranking exceeded the average-case cost in %d of %d trials", worse, trials)
	}
}
