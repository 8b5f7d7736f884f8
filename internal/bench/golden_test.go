package bench

import (
	"bufio"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hiddensky/internal/core"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// The query goldens pin the paper's cost metric — the number of queries
// a discovery issues — exactly, together with the skyline size and
// completeness, for fixed discoveries: the five requests of perfbench's
// discover_local workload, every paper figure at quick scale, option and
// request variants, and the planner cells of the core package. Every row
// is also checked against the offline skyline (or K-skyband) of its data,
// so a golden can only record a correct discovery. A change to any count
// fails with the row's name; after an intended change, rerun with
//
//	go test ./internal/bench -run TestQueryGoldens -update
//
// and say in CHANGES.md why the counts moved.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

const queriesGolden = "testdata/queries.golden"

// goldenCase is one discovery: req runs on a fresh hidden.DB over rows.
type goldenCase struct {
	// name keys the golden row; it starts with group, the subtest the
	// case runs under.
	name  string
	group string
	rows  [][]int
	caps  []hidden.Capability
	k     int
	rank  hidden.Ranking
	req   core.Request
	opt   core.Options
	// slice, when > 0, runs a resumable request in sessions of this many
	// queries until the walk is done; Queries is then the session total.
	slice int
	// exact is false for parallel runs whose traversal varies with worker
	// scheduling (every algorithm but SQ): their row pins the skyline and
	// completeness, and the count is checked against the queries the
	// backend served instead.
	exact bool
	// sameAs names an earlier row this one must equal, whatever the
	// golden file says: the same walk run another way.
	sameAs string
}

// goldenRow is what a golden pins about a discovery.
type goldenRow struct {
	queries  string // "-" when the case is not exact
	skyline  int
	complete bool
}

func (r goldenRow) String() string {
	return fmt.Sprintf("queries=%s skyline=%d complete=%t", r.queries, r.skyline, r.complete)
}

func TestQueryGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("query goldens skipped in -short mode")
	}
	want := readGoldens(t)
	got := map[string]string{}
	cases := goldenCases()
	var groups []string
	for i, gc := range cases {
		if i == 0 || gc.group != cases[i-1].group {
			groups = append(groups, gc.group)
		}
	}
	for _, g := range groups {
		t.Run(g, func(t *testing.T) {
			for _, gc := range cases {
				if gc.group != g {
					continue
				}
				t.Run(strings.TrimPrefix(gc.name, g+"/"), func(t *testing.T) {
					row, err := runGolden(gc)
					if err != nil {
						t.Fatal(err)
					}
					got[gc.name] = row.String()
					if gc.sameAs != "" && got[gc.sameAs] != row.String() {
						t.Fatalf("got %s, but %s got %s", row, gc.sameAs, got[gc.sameAs])
					}
					if *update {
						return
					}
					if w, ok := want[gc.name]; !ok {
						t.Fatalf("no golden row (got %s); rerun with -update", row)
					} else if w != row.String() {
						t.Fatalf("golden %s, got %s", w, row)
					}
				})
			}
		})
	}
	if *update {
		writeGoldens(t, cases, want, got)
	}
}

// TestQueryGoldensFigures pins every paper figure at quick scale, seed 1,
// as its rendered table: the tables are the figures' query counts.
func TestQueryGoldensFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure goldens skipped in -short mode")
	}
	for _, r := range All() {
		t.Run(r.ID, func(t *testing.T) {
			fig, err := r.Run(Config{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", r.ID+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(fig.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v; rerun with -update", err)
			}
			if got := fig.String(); got != string(want) {
				t.Fatalf("%s moved:\n%s", r.ID, lineDiff(string(want), got))
			}
		})
	}
}

func runGolden(gc goldenCase) (goldenRow, error) {
	db, err := hidden.New(hidden.Config{Data: gc.rows, Caps: gc.caps, K: gc.k, Rank: gc.rank})
	if err != nil {
		return goldenRow{}, err
	}
	var res core.Result
	if gc.slice > 0 {
		plan, err := core.Plan(db, gc.req)
		if err != nil {
			return goldenRow{}, err
		}
		req, opt := gc.req, gc.opt
		req.Session = plan.Session()
		opt.MaxQueries = gc.slice
		for i := 0; !req.Session.Done(); i++ {
			if i > 1_000_000 {
				return goldenRow{}, errors.New("resumable run does not finish")
			}
			if res, err = core.Run(db, req, opt); err != nil && !errors.Is(err, core.ErrBudget) {
				return goldenRow{}, err
			}
		}
	} else if res, err = core.Run(db, gc.req, gc.opt); err != nil {
		return goldenRow{}, err
	}
	if res.Queries != db.QueriesIssued() {
		return goldenRow{}, fmt.Errorf("Result.Queries %d, backend served %d", res.Queries, db.QueriesIssued())
	}
	if err := checkTruth(gc, res); err != nil {
		return goldenRow{}, err
	}
	row := goldenRow{queries: "-", skyline: len(res.Skyline), complete: res.Complete}
	if gc.exact {
		row.queries = fmt.Sprint(res.Queries)
	}
	return row, nil
}

// checkTruth compares a discovery with the offline skyline, or K-skyband
// with its dominator counts, of the rows its filter selects. An
// incomplete run (the partial SQ band walk) must return a subset.
func checkTruth(gc goldenCase, res core.Result) error {
	var rows [][]int
	for _, t := range gc.rows {
		if gc.req.Filter.Matches(t) {
			rows = append(rows, t)
		}
	}
	band := max(gc.req.Band, 1)
	truth := map[string]int{}
	for _, i := range skyline.Skyband(rows, band) {
		n := 0
		for _, u := range rows {
			if skyline.Dominates(u, rows[i]) {
				n++
			}
		}
		truth[fmt.Sprint(rows[i])] = n
	}
	if res.Complete && len(res.Skyline) != len(truth) {
		return fmt.Errorf("discovered %d tuples, ground truth has %d", len(res.Skyline), len(truth))
	}
	if res.Band != gc.req.Band {
		return fmt.Errorf("Result.Band %d, requested %d", res.Band, gc.req.Band)
	}
	if gc.req.Band > 0 && len(res.BandCounts) != len(res.Skyline) {
		return fmt.Errorf("band run returned %d counts for %d tuples", len(res.BandCounts), len(res.Skyline))
	}
	seen := map[string]bool{}
	for i, t := range res.Skyline {
		key := fmt.Sprint(t)
		n, ok := truth[key]
		switch {
		case !ok:
			return fmt.Errorf("tuple %v is not in the ground truth", t)
		case seen[key]:
			return fmt.Errorf("tuple %v discovered twice", t)
		case gc.req.Band > 0 && res.Complete && res.BandCounts[i] != n:
			return fmt.Errorf("tuple %v: band count %d, ground truth %d", t, res.BandCounts[i], n)
		}
		seen[key] = true
	}
	return nil
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, seed := range []int64{1, 7} {
		cases = append(cases, localCases(seed)...)
	}
	return append(append(cases, variantCases()...), parityCases()...)
}

// localStores rebuilds perfbench's discover_local stores (its own module,
// so its generators are restated here): BlueNile, 4-d Independent behind
// one-ended ranges, small-domain anti-correlated behind points, Flights.
func localStores(seed int64) (bn, ind, anti, fl datagen.Dataset) {
	sub := func(i int) int64 { return seed*1_000_003 + int64(i) }
	return distinct(datagen.BlueNile(sub(0), 800)),
		distinct(datagen.Independent(sub(1), 1000, 4, 1000).WithCaps(hidden.SQ)),
		distinct(datagen.AntiCorrelated(sub(2), 5000, 4, 10).WithCaps(hidden.PQ)),
		distinct(datagen.Flights(sub(3), 250))
}

// localCases are discover_local's five requests: K=10, parallelism 1.
func localCases(seed int64) []goldenCase {
	bn, ind, anti, fl := localStores(seed)
	g := fmt.Sprintf("discover_local/seed%d", seed)
	return []goldenCase{
		dsCase(g, "rq", bn, core.Request{Algo: core.AlgoRQ}, core.Options{}),
		dsCase(g, "rq_band2", bn, core.Request{Algo: core.AlgoRQ, Band: 2}, core.Options{}),
		dsCase(g, "sq", ind, core.Request{Algo: core.AlgoSQ}, core.Options{}),
		dsCase(g, "pq", anti, core.Request{Algo: core.AlgoPQ}, core.Options{}),
		dsCase(g, "auto", fl, core.Request{Algo: core.AlgoAuto}, core.Options{}),
	}
}

// variantCases run the discover_local stores of seed 1 under the request
// shapes and options the five requests leave out.
func variantCases() []goldenCase {
	bn, ind, anti, fl := localStores(1)
	const g = "variants"
	// SQ's count is exact at any parallelism, and the resumable session
	// walk is SQ's, whether run in one go or in 5-query slices.
	sqP4 := dsCase(g, "sq_parallel4", ind, core.Request{Algo: core.AlgoSQ}, core.Options{Parallelism: 4})
	sqP4.sameAs = "discover_local/seed1/sq"
	resumable := dsCase(g, "sq_resumable", ind, core.Request{Resumable: true}, core.Options{})
	resumable.sameAs = sqP4.sameAs
	sliced := resumable
	sliced.name, sliced.slice = g+"/sq_resumable_slices5", 5
	return []goldenCase{
		dsCase(g, "rq_filtered", bn, core.Request{Algo: core.AlgoRQ, Filter: query.MustParse("A0<6000,A1>=60")}, core.Options{}),
		dsCase(g, "auto_filtered", fl, core.Request{Filter: query.MustParse("A1<15")}, core.Options{}),
		dsCase(g, "rq_band3", bn, core.Request{Algo: core.AlgoRQ, Band: 3}, core.Options{}),
		dsCase(g, "pq_band2", anti, core.Request{Algo: core.AlgoPQ, Band: 2}, core.Options{}),
		dsCase(g, "sq_band2", ind, core.Request{Algo: core.AlgoSQ, Band: 2}, core.Options{}),
		resumable,
		sliced,
		sqP4,
		dsCase(g, "rq_skip_empty", bn, core.Request{Algo: core.AlgoRQ}, core.Options{SkipProvablyEmpty: true}),
		dsCase(g, "auto_skip_empty", fl, core.Request{}, core.Options{SkipProvablyEmpty: true}),
		dsCase(g, "rq_overflow_flag", bn, core.Request{Algo: core.AlgoRQ}, core.Options{UseOverflowFlag: true}),
		dsCase(g, "auto_overflow_flag", fl, core.Request{}, core.Options{UseOverflowFlag: true}),
	}
}

func dsCase(group, leaf string, ds datagen.Dataset, req core.Request, opt core.Options) goldenCase {
	return goldenCase{name: group + "/" + leaf, group: group, rows: ds.Data, caps: ds.Caps(), k: 10, req: req, opt: opt,
		exact: opt.Parallelism <= 1 || req.Algo == core.AlgoSQ}
}

// parityCases are the planner cells core once compared against its own
// dispatch targets: 70 distinct tuples over a 12-value domain, K=4, sum
// ranking, each skyline cell at parallelism 1 and 3.
func parityCases() []goldenCase {
	sq, rq, pq := hidden.SQ, hidden.RQ, hidden.PQ
	type cell struct {
		name string
		caps []hidden.Capability
		req  core.Request
	}
	sky := []cell{
		{"auto/sq-caps", []hidden.Capability{sq, sq}, core.Request{}},
		{"auto/rq-caps", []hidden.Capability{rq, rq}, core.Request{}},
		{"auto/pq-caps", []hidden.Capability{pq, pq}, core.Request{}},
		{"auto/mixed", []hidden.Capability{sq, rq, pq}, core.Request{}},
		{"sq/explicit", []hidden.Capability{sq, sq}, core.Request{Algo: core.AlgoSQ}},
		{"sq/on-rq", []hidden.Capability{rq, rq}, core.Request{Algo: core.AlgoSQ}},
		{"rq/explicit", []hidden.Capability{rq, rq}, core.Request{Algo: core.AlgoRQ}},
		{"rq/mixed-sq", []hidden.Capability{sq, rq}, core.Request{Algo: core.AlgoRQ}},
		{"pq/explicit", []hidden.Capability{pq, pq}, core.Request{Algo: core.AlgoPQ}},
		{"mq/explicit", []hidden.Capability{sq, rq, pq}, core.Request{Algo: core.AlgoMQ}},
		{"filter/auto", []hidden.Capability{rq, rq}, core.Request{Filter: query.MustParse("A0<8,A1>=2")}},
		{"filter/pq-eq", []hidden.Capability{pq, pq}, core.Request{Filter: query.MustParse("A0=3")}},
	}
	band := []cell{
		{"auto-rq", []hidden.Capability{rq, rq}, core.Request{Band: 2}},
		{"auto-pq", []hidden.Capability{pq, pq}, core.Request{Band: 2}},
		{"auto-sq", []hidden.Capability{sq, sq}, core.Request{Band: 2}},
		{"auto-sqrq", []hidden.Capability{sq, rq}, core.Request{Band: 2}},
		{"explicit-rq", []hidden.Capability{rq, rq}, core.Request{Algo: core.AlgoRQ, Band: 3}},
		{"explicit-pq", []hidden.Capability{pq, pq}, core.Request{Algo: core.AlgoPQ, Band: 3}},
		{"explicit-sq-on-rq", []hidden.Capability{rq, rq}, core.Request{Algo: core.AlgoSQ, Band: 2}},
	}
	mk := func(group, leaf string, c cell, seed int64, par int) goldenCase {
		return goldenCase{name: group + "/" + leaf, group: group, rows: uniqueData(seed, 70, len(c.caps), 12), caps: c.caps,
			k: 4, rank: hidden.SumRank{}, req: c.req, opt: core.Options{Parallelism: par},
			exact: par <= 1 || c.req.Algo == core.AlgoSQ}
	}
	var cases []goldenCase
	for _, c := range sky {
		cases = append(cases, mk("parity/skyline", c.name, c, 42, 1), mk("parity/skyline", c.name+"/parallel", c, 42, 3))
	}
	for _, c := range band {
		cases = append(cases, mk("parity/band", c.name, c, 99, 1))
	}
	resume := mk("parity", "resume", cell{caps: []hidden.Capability{rq, rq}, req: core.Request{Resumable: true}}, 7, 1)
	resume.slice = 5
	return append(cases, resume)
}

// uniqueData draws n distinct tuples over m attributes uniformly in
// [0, domain) from a seeded source.
func uniqueData(seed int64, n, m, domain int) [][]int {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var data [][]int
	for len(data) < n {
		t := make([]int, m)
		for j := range t {
			t[j] = rng.Intn(domain)
		}
		if k := fmt.Sprint(t); !seen[k] {
			seen[k] = true
			data = append(data, t)
		}
	}
	return data
}

// distinct drops repeated rows, keeping the first of each: duplicates are
// indistinguishable through a top-k interface, so band counts assume
// distinct tuples.
func distinct(ds datagen.Dataset) datagen.Dataset {
	seen := map[string]bool{}
	rows := ds.Data[:0:0]
	var key []byte
	for _, t := range ds.Data {
		key = key[:0]
		for _, v := range t {
			key = binary.LittleEndian.AppendUint64(key, uint64(v))
		}
		if !seen[string(key)] {
			seen[string(key)] = true
			rows = append(rows, t)
		}
	}
	ds.Data, ds.Filters = rows, nil
	return ds
}

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	rows := map[string]string{}
	f, err := os.Open(queriesGolden)
	if errors.Is(err, os.ErrNotExist) && *update {
		return rows
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, row, _ := strings.Cut(line, " ")
		rows[name] = strings.TrimSpace(row)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// writeGoldens rewrites the golden file in case order; rows a filtered
// run (-run) did not reach keep their old values.
func writeGoldens(t *testing.T, cases []goldenCase, old, got map[string]string) {
	t.Helper()
	width := 0
	for _, gc := range cases {
		width = max(width, len(gc.name))
	}
	var b strings.Builder
	b.WriteString("# Exact query cost of fixed discoveries (TestQueryGoldens; regenerate with -update).\n")
	for _, gc := range cases {
		row, ok := got[gc.name]
		if !ok {
			if row, ok = old[gc.name]; !ok {
				continue
			}
		}
		fmt.Fprintf(&b, "%-*s %s\n", width, gc.name, row)
	}
	if err := os.WriteFile(queriesGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// lineDiff lists the lines of got that differ from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
