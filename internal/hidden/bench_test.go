package hidden_test

import (
	"math/rand"
	"testing"

	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
)

// BenchmarkQuery times DB.Query, the top-k answer behind every
// discovery query, on the three access patterns the discovery
// algorithms produce:
//
//   - flights_point: MQ's prefix probes on a Flights-shaped store (250
//     rows, k=10), pinning one or two point attributes with "=", so the
//     evaluator walks one value's rank-ordered postings;
//   - narrow_range: a two-ended range covering ~1% of a 100,000-value
//     domain on 20,000 rows, wider than n, so the lookup binary-searches
//     and the matches are sorted by rank;
//   - broad_rq: RQ tree-walk shapes on a BlueNile-shaped store (800 rows,
//     the perfbench size) that match most rows, so the evaluator walks
//     the rows best-rank-first and stops at the k+1-st match.
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

	for _, c := range []struct {
		name string
		ds   datagen.Dataset
		qs   []query.Q
	}{
		{"flights_point", fl, point},
		{"narrow_range", ind, narrow},
		{"broad_rq", bn, broad},
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

// BenchmarkNew times building a database (ranking, rank-ordered copy and
// column postings) from a BlueNile-shaped table of 2,000 rows: its price
// column is wider than n (comparison sort), the others take the counting
// sort.
func BenchmarkNew(b *testing.B) {
	cfg := datagen.BlueNile(1, 2000).Config(10, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hidden.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
