package hiddensky

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"hiddensky/internal/bench"
	"hiddensky/internal/skyline"
)

// benchConfig selects the experiment scale: quick by default so the whole
// suite is CI-friendly; set SKYBENCH_FULL=1 to regenerate every figure at
// the paper's published scale (Blue Nile at 209,666 tuples, DOT sweeps to
// 400,000, ...).
func benchConfig() bench.Config {
	return bench.Config{Quick: os.Getenv("SKYBENCH_FULL") == "", Seed: 1}
}

// benchFigure regenerates one paper figure per iteration and reports the
// total interface queries of its first discovery series as a metric.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	r, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	cfg := benchConfig()
	var fig bench.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = r.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(fig.Series) > 0 && len(fig.Series[0].Points) > 0 {
		last := fig.Series[0].Points[len(fig.Series[0].Points)-1]
		b.ReportMetric(last.Y, "queries")
	}
}

// One benchmark per figure of the paper's evaluation section.

func BenchmarkFig04AnalyticBounds(b *testing.B)    { benchFigure(b, "fig4") }
func BenchmarkFig06SQvsRQSimulation(b *testing.B)  { benchFigure(b, "fig6") }
func BenchmarkFig13RangeImpactOfK(b *testing.B)    { benchFigure(b, "fig13") }
func BenchmarkFig14RangeImpactOfN(b *testing.B)    { benchFigure(b, "fig14") }
func BenchmarkFig15RangeImpactOfM(b *testing.B)    { benchFigure(b, "fig15") }
func BenchmarkFig16PointImpactOfN(b *testing.B)    { benchFigure(b, "fig16") }
func BenchmarkFig17PointDomainSize(b *testing.B)   { benchFigure(b, "fig17") }
func BenchmarkFig18MixedImpactOfN(b *testing.B)    { benchFigure(b, "fig18") }
func BenchmarkFig19MixedVaryingAttrs(b *testing.B) { benchFigure(b, "fig19") }
func BenchmarkFig20AnytimeRange(b *testing.B)      { benchFigure(b, "fig20") }
func BenchmarkFig21AnytimePoint(b *testing.B)      { benchFigure(b, "fig21") }
func BenchmarkFig22BlueNile(b *testing.B)          { benchFigure(b, "fig22") }
func BenchmarkFig23GoogleFlights(b *testing.B)     { benchFigure(b, "fig23") }
func BenchmarkFig24YahooAutos(b *testing.B)        { benchFigure(b, "fig24") }

// Library micro-benchmarks.

func BenchmarkHiddenQueryBroad(b *testing.B) {
	d := Flights(1, 50000).Project(0, 1, 2, 5)
	db := d.DB(10, SumRank{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHiddenQueryNarrow(b *testing.B) {
	d := Flights(1, 50000).Project(0, 1, 2, 5)
	db := d.DB(10, SumRank{})
	q := Q{{Attr: 0, Op: LT, Value: 10}, {Attr: 1, Op: LT, Value: 10}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLocalSkylineSFS(b *testing.B) {
	d := Flights(1, 50000).Project(0, 1, 2, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skyline.SFS(d.Data)
	}
}

func BenchmarkDominates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tuples := make([][]int, 1024)
	for i := range tuples {
		tuples[i] = []int{rng.Intn(100), rng.Intn(100), rng.Intn(100), rng.Intn(100)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dominates(tuples[i%1024], tuples[(i+1)%1024])
	}
}

func BenchmarkDiscoverRQDiamonds(b *testing.B) {
	d := BlueNile(1, 20000)
	db := d.DB(50, AttrRank{Attr: 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ResetCounter()
		res, err := Discover(db, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Queries), "queries")
			b.ReportMetric(float64(len(res.Skyline)), "skyline")
		}
	}
}

func BenchmarkDiscoverPQFlights(b *testing.B) {
	d := Flights(1, 20000).Project(6, 7, 10) // three PQ group attributes
	db := d.DB(10, SumRank{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ResetCounter()
		if _, err := PQDBSky(db, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrawlBaseline(b *testing.B) {
	d := Flights(1, 5000).Project(0, 1, 2).WithCaps(RQ)
	db := d.DB(10, SumRank{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ResetCounter()
		res, err := Crawl(db, CrawlOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Queries), "queries")
		}
	}
}

// Sanity check so `go test` (not just -bench) exercises the figure list.
func TestFigureRegistry(t *testing.T) {
	all := bench.All()
	if len(all) != 14 { // the paper's 14 figures
		t.Fatalf("expected 14 figures, have %d", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.ID] {
			t.Fatalf("duplicate figure id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := bench.ByID(r.ID); !ok {
			t.Fatalf("ByID cannot find %s", r.ID)
		}
	}
	for _, alias := range []string{"13", "Fig13", " fig13 "} {
		if r, ok := bench.ByID(alias); !ok || r.ID != "fig13" {
			t.Fatalf("alias %q not resolved", alias)
		}
	}
	if _, ok := bench.ByID("fig99"); ok {
		t.Fatal("fig99 should not resolve")
	}
	_ = fmt.Sprint() // keep fmt for future debugging edits
}
