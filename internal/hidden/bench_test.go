package hidden_test

import (
	"math/rand"
	"testing"

	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// BenchmarkQuery times DB.Query, the top-k answer behind every
// discovery query, on the access patterns the discovery algorithms
// produce:
//
//   - flights_point: MQ's prefix probes on a Flights-shaped store (250
//     rows, k=10), pinning one or two point attributes with "=";
//   - narrow_range: a two-ended range covering ~1% of a 100,000-value
//     domain on 20,000 rows, so its bounds fall inside quantile bins;
//   - broad_rq: RQ tree-walk shapes on a BlueNile-shaped store (800 rows,
//     the perfbench size) that match most rows, so the walk stops at the
//     k+1-st match within the first words;
//   - empty_range: RQ shapes on the same store that ask for a larger
//     stone at no higher price and grades, which price's correlation
//     with carat leaves empty, so every word is read;
//   - pq_point3: PQ-DB-SKY's cell probes, three "=" on a 4-d
//     anti-correlated store of domain 10 (5,000 rows);
//   - wide_eq_5k: the RQ K=2 band's branch shape on 5,000 BlueNile rows,
//     an "=" on price, whose quantile bin holds about n/32 rows that all
//     get a value check;
//   - empty_range_50k: empty_range on 50,000 rows.
func BenchmarkQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))

	fl := datagen.Flights(1, 250)
	var point []query.Q
	for i := 0; i < 256; i++ {
		row := fl.Data[rng.Intn(len(fl.Data))]
		q := query.Q{{Attr: datagen.FlightPQAttrs[0], Op: query.EQ, Value: row[datagen.FlightPQAttrs[0]]}}
		if i%2 == 1 {
			a := datagen.FlightPQAttrs[1+rng.Intn(len(datagen.FlightPQAttrs)-1)]
			q = append(q, query.Predicate{Attr: a, Op: query.EQ, Value: row[a]})
		}
		point = append(point, q)
	}

	const wide = 100000
	ind := datagen.Independent(1, 20000, 4, wide).WithCaps(hidden.RQ)
	var narrow []query.Q
	for i := 0; i < 256; i++ {
		lo := rng.Intn(wide - wide/100)
		narrow = append(narrow, query.Q{
			{Attr: i % 4, Op: query.GE, Value: lo},
			{Attr: i % 4, Op: query.LT, Value: lo + wide/100},
			{Attr: (i + 1) % 4, Op: query.LE, Value: wide / 2},
		})
	}

	bn := datagen.BlueNile(1, 800)
	var broad []query.Q
	for i := 0; i < 256; i++ {
		row := bn.Data[rng.Intn(len(bn.Data))]
		q := query.Q{{Attr: datagen.DiamondPrice, Op: query.GE, Value: row[datagen.DiamondPrice] / 4}}
		for _, a := range []int{datagen.DiamondCut, datagen.DiamondColor, datagen.DiamondClarity} {
			if rng.Intn(2) == 0 {
				q = append(q, query.Predicate{Attr: a, Op: query.LE, Value: 1 + rng.Intn(3) + row[a]})
			}
		}
		broad = append(broad, q)
	}

	anti := datagen.AntiCorrelated(1, 5000, 4, 10).WithCaps(hidden.PQ)
	var cells []query.Q
	for i := 0; i < 256; i++ {
		row := anti.Data[rng.Intn(len(anti.Data))]
		var q query.Q
		for a := range 4 {
			if a != i%4 {
				q = append(q, query.Predicate{Attr: a, Op: query.EQ, Value: row[a]})
			}
		}
		cells = append(cells, q)
	}

	bn5k := datagen.BlueNile(1, 5000)
	var band []query.Q
	for i := 0; i < 256; i++ {
		row := bn5k.Data[rng.Intn(len(bn5k.Data))]
		q := query.Q{
			{Attr: datagen.DiamondPrice, Op: query.EQ, Value: row[datagen.DiamondPrice]},
			{Attr: datagen.DiamondCaratRank, Op: query.GT, Value: row[datagen.DiamondCaratRank]},
		}
		for a := datagen.DiamondCut; a <= datagen.DiamondClarity; a++ {
			q = append(q, query.Predicate{Attr: a, Op: query.GE, Value: row[a]})
		}
		band = append(band, q)
	}

	bn50k := datagen.BlueNile(1, 50000)

	for _, c := range []struct {
		name string
		ds   datagen.Dataset
		qs   []query.Q
	}{
		{"flights_point", fl, point},
		{"narrow_range", ind, narrow},
		{"broad_rq", bn, broad},
		{"empty_range", bn, emptyRanges(b, rng, bn)},
		{"pq_point3", anti, cells},
		{"wide_eq_5k", bn5k, band},
		{"empty_range_50k", bn50k, emptyRanges(b, rng, bn50k)},
	} {
		b.Run(c.name, func(b *testing.B) {
			db := c.ds.DB(10, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(c.qs[i%len(c.qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// emptyRanges draws 256 queries on a BlueNile-shaped dataset that ask
// for a larger stone than some row's at no higher price and no worse
// grades, keeping only those no row matches.
func emptyRanges(b *testing.B, rng *rand.Rand, ds datagen.Dataset) []query.Q {
	db := ds.DB(10, nil)
	var out []query.Q
	for tries := 0; len(out) < 256; tries++ {
		if tries == 100000 {
			b.Fatalf("only %d empty ranges in %d tries", len(out), tries)
		}
		row := ds.Data[rng.Intn(len(ds.Data))]
		q := query.Q{
			{Attr: datagen.DiamondPrice, Op: query.LE, Value: row[datagen.DiamondPrice]},
			{Attr: datagen.DiamondCaratRank, Op: query.LT, Value: row[datagen.DiamondCaratRank]},
		}
		for a := datagen.DiamondCut; a <= datagen.DiamondClarity; a++ {
			q = append(q, query.Predicate{Attr: a, Op: query.LE, Value: row[a]})
		}
		if res, err := db.Query(q); err == nil && len(res.Tuples) == 0 {
			out = append(out, q)
		}
	}
	return out
}

// TestQueryAlloc pins DB.Query's allocations: an empty answer allocates
// nothing, and a k-row answer allocates only its result (the flat value
// array and the row slice, plus the filter rows for QueryFull on a store
// that has them).
func TestQueryAlloc(t *testing.T) {
	ds := datagen.BlueNile(1, 800)
	db := ds.DB(10, nil)
	row := ds.Data[0]
	empty := query.Q{{Attr: datagen.DiamondPrice, Op: query.LT, Value: 0}}
	someRows := query.Q{{Attr: datagen.DiamondCut, Op: query.EQ, Value: row[datagen.DiamondCut]}, {Attr: datagen.DiamondPrice, Op: query.GE, Value: 1000}}
	for _, c := range []struct {
		name string
		want float64
		run  func() (hidden.Result, error)
	}{
		{"empty", 0, func() (hidden.Result, error) { return db.Query(empty) }},
		{"k rows", 2, func() (hidden.Result, error) { return db.Query(someRows) }},
		{"k rows with filters", 3, func() (hidden.Result, error) {
			res, _, err := db.QueryFull(someRows)
			return res, err
		}},
	} {
		res, err := c.run()
		if err != nil || (c.want == 0) != (len(res.Tuples) == 0) {
			t.Fatalf("%s: %d tuples, err %v", c.name, len(res.Tuples), err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = c.run() }); got != c.want {
			t.Errorf("%s: %v allocs/op, want %v", c.name, got, c.want)
		}
	}
}

// BenchmarkNew times building a database (ranking, rank-ordered copy,
// bins and bitmaps) from a BlueNile-shaped table of 2,000 rows: its price
// column is wider than 8n (bins cut from a sorted copy), the others are
// narrow (one-value bins, or quantile bins cut from a histogram).
func BenchmarkNew(b *testing.B) {
	cfg := datagen.BlueNile(1, 2000).Config(10, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hidden.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
