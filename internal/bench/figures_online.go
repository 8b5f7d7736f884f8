package bench

import (
	"errors"
	"fmt"

	"hiddensky/internal/core"
	"hiddensky/internal/crawl"
	"hiddensky/internal/datagen"
	"hiddensky/internal/hidden"
)

// baselineCap mirrors the paper's online experiments, which discontinued
// BASELINE after 10,000 queries.
const baselineCap = 10000

// onlineComparison runs MQ-DB-SKY (traced) and the capped BASELINE crawl
// over one web database and builds both discovery curves.
func onlineComparison(fig *Figure, d datagen.Dataset, k int, rank hidden.Ranking) error {
	res, err := core.Run(d.DB(k, rank), core.Request{}, core.Options{Trace: true})
	if err != nil {
		return err
	}
	fig.Series = append(fig.Series, Series{
		Name:   "MQ-DB-SKY",
		Points: discoveryCurve(res.Trace, res.Skyline),
	})

	// BASELINE can only claim skyline tuples after a full crawl, but the
	// paper plots when each eventual skyline tuple was first retrieved.
	truth := groundSkyline(d.Data)
	inSky := map[string]bool{}
	for _, t := range truth {
		inSky[fmt.Sprint(t)] = true
	}
	var basePoints []Point
	seen := map[string]bool{}
	cres, err := crawl.Crawl(d.DB(k, rank), crawl.Options{
		MaxQueries: baselineCap,
		OnBatch: func(queries int, tuples [][]int) {
			for _, t := range tuples {
				key := fmt.Sprint(t)
				if inSky[key] && !seen[key] {
					seen[key] = true
					basePoints = append(basePoints, Point{X: float64(len(basePoints) + 1), Y: float64(queries)})
				}
			}
		},
	})
	if err != nil && !errors.Is(err, crawl.ErrBudget) {
		return err
	}
	fig.Series = append(fig.Series, Series{Name: "BASELINE", Points: basePoints})

	perSky := float64(res.Queries) / float64(len(res.Skyline))
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"%s: |S|=%d; MQ-DB-SKY finished in %d queries (%.1f per skyline tuple)",
		d.Name, len(res.Skyline), res.Queries, perSky))
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"BASELINE stopped at %d queries having retrieved %d of %d skyline tuples (complete=%v)",
		cres.Queries, len(basePoints), len(truth), cres.Complete))
	return nil
}

// Fig22 regenerates Figure 22: skyline discovery over the Blue Nile
// diamond database (209,666 diamonds, five two-ended range attributes,
// price-ascending ranking, k = 50), MQ-DB-SKY versus BASELINE.
func Fig22(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig22",
		Title:  "Online Experiments: Blue Nile Diamonds",
		XLabel: "Skyline Discovery Process",
		YLabel: "Query Cost",
	}
	n := cfg.scale(209666, 15000)
	d := datagen.BlueNile(cfg.Seed, n)
	err := onlineComparison(&fig, d, 50, hidden.AttrRank{Attr: datagen.DiamondPrice})
	return fig, err
}

// Fig23 regenerates Figure 23: skyline discovery over Google Flights route
// databases — 50 random route/date pairs, SQ on Stops/Price/Connection and
// RQ on DepartureTime, k = 1, average query cost at each discovery rank.
func Fig23(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig23",
		Title:  "Online Experiments: Google Flights",
		XLabel: "Skyline Discovery Progress",
		YLabel: "Average Query Cost",
	}
	routes := cfg.scale(50, 8)
	sums := map[int]float64{} // discovery rank -> summed query cost
	counts := map[int]int{}
	minSky, maxSky, totalQ := 1<<30, 0, 0
	for r := 0; r < routes; r++ {
		d := datagen.GoogleFlightsRoute(cfg.Seed + int64(r))
		// One QPX request returns a page of ~20 itineraries.
		res, err := core.Run(d.DB(20, hidden.AttrRank{Attr: datagen.GFPrice}), core.Request{}, core.Options{Trace: true})
		if err != nil {
			return fig, err
		}
		curve := discoveryCurve(res.Trace, res.Skyline)
		for _, p := range curve {
			i := int(p.X)
			sums[i] += p.Y
			counts[i]++
		}
		if s := len(res.Skyline); s < minSky {
			minSky = s
		}
		if s := len(res.Skyline); s > maxSky {
			maxSky = s
		}
		totalQ += res.Queries
	}
	s := Series{Name: "MQ-DB-SKY"}
	for i := 1; counts[i] > 0; i++ {
		s.Points = append(s.Points, Point{X: float64(i), Y: sums[i] / float64(counts[i])})
	}
	fig.Series = append(fig.Series, s)
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"%d routes; skyline sizes %d-%d; mean total cost %.1f queries per route (k=20)",
		routes, minSky, maxSky, float64(totalQ)/float64(routes)))
	return fig, nil
}

// Fig24 regenerates Figure 24: skyline discovery over the Yahoo! Autos
// database (125,149 cars over Price, Mileage, Year, k = 50), MQ-DB-SKY
// versus BASELINE.
func Fig24(cfg Config) (Figure, error) {
	fig := Figure{
		ID:     "fig24",
		Title:  "Online Experiments: Yahoo! Autos",
		XLabel: "Skyline Discovery Process",
		YLabel: "Query Cost",
	}
	n := cfg.scale(125149, 15000)
	d := datagen.YahooAutos(cfg.Seed, n)
	err := onlineComparison(&fig, d, 50, hidden.AttrRank{Attr: datagen.AutoPrice})
	return fig, err
}
