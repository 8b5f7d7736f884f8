package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"hiddensky/internal/hidden"
	"hiddensky/internal/query"
	"hiddensky/internal/skyline"
)

// FuzzTreeWalk runs the tree walk's configurations against brute force on
// tiny stores: 2-3 attributes, at most 40 distinct rows over domains of at
// most 8 values, k from 1 to 4, SQ or RQ capabilities on every attribute.
// The request is one of sq, rq, the band walks at K in {1,2,3} (SQ
// explicitly, or the planner's choice for the capabilities), a resumable
// run in slices of 1-9 queries, or sq at parallelism 2 or 4.
//
//   - A complete result is the brute-force K-skyband (K=1 for a skyline
//     run), band counts included.
//   - A resumable run, and the SQ band walk at K=1, match one-shot sq in
//     skyline and query count.
//   - With edge set, the last attribute's domain ends at MaxInt, and the
//     request fails with ErrUnsupported before any query.
//
// Seeds are under testdata/fuzz.
func FuzzTreeWalk(f *testing.F) {
	f.Fuzz(func(t *testing.T, m, dom, k, mode, arg uint8, rq, edge bool, rows []byte) {
		nAttrs, width, topK := 2+int(m%2), 2+int(dom%7), 1+int(k%4)
		var data [][]int
		seen := map[string]bool{}
		for i := 0; i+nAttrs <= len(rows) && len(data) < 40; i += nAttrs {
			row := make([]int, nAttrs)
			for a := range row {
				row[a] = int(rows[i+a]) % width
			}
			if key := fmt.Sprint(row); !seen[key] {
				seen[key] = true
				data = append(data, row)
			}
		}
		if len(data) == 0 {
			return
		}
		caps := capsAll(nAttrs, hidden.SQ)
		if rq {
			caps = capsAll(nAttrs, hidden.RQ)
		}
		var doms []query.Interval
		if edge {
			doms = make([]query.Interval, nAttrs)
			for a := range doms {
				doms[a] = query.Interval{Lo: 0, Hi: width - 1}
			}
			doms[nAttrs-1].Hi = math.MaxInt
		}
		mk := func() *hidden.DB {
			db, err := hidden.New(hidden.Config{Data: data, Caps: caps, K: topK, Rank: hidden.SumRank{}, Domains: doms})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}

		var req Request
		var opt Options
		band, slice := 1, 0
		switch mode % 6 {
		case 0:
			req.Algo = AlgoSQ
		case 1:
			req.Algo = AlgoRQ
		case 2:
			band = 1 + int(arg%3)
			req = Request{Algo: AlgoSQ, Band: band}
		case 3:
			band = 1 + int(arg%3)
			req.Band = band
		case 4:
			slice = 1 + int(arg%9)
			req.Resumable = true
		case 5:
			req.Algo = AlgoSQ
			opt.Parallelism = 2 + 2*int(arg%2)
		}
		name := fmt.Sprintf("%+v %+v k=%d caps=%v", req, opt, topK, caps)

		db := mk()
		if edge {
			_, err := Run(db, req, opt)
			if !errors.Is(err, ErrUnsupported) || db.QueriesIssued() != 0 {
				t.Fatalf("%s on a MaxInt domain: %v after %d queries, want ErrUnsupported after none", name, err, db.QueriesIssued())
			}
			if _, err := NewSession(db).Resume(db, Options{}); !errors.Is(err, ErrUnsupported) || db.QueriesIssued() != 0 {
				t.Fatalf("Session.Resume on a MaxInt domain: %v after %d queries", err, db.QueriesIssued())
			}
			return
		}

		var res Result
		var err error
		if slice > 0 {
			s := NewSession(db)
			for day := 0; !s.Done(); day++ {
				if day > 10000 {
					t.Fatalf("%s: resume does not converge", name)
				}
				if res, err = s.Resume(mk(), Options{MaxQueries: slice}); err != nil && !errors.Is(err, ErrBudget) {
					t.Fatalf("%s: %v", name, err)
				}
			}
		} else if res, err = Run(db, req, opt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if slice > 0 || req.Band == 1 && (req.Algo == AlgoSQ || !rq) {
			oneShot, err := Run(mk(), Request{Algo: AlgoSQ}, Options{})
			if err != nil {
				t.Fatalf("one-shot sq: %v", err)
			}
			if ok, diff := sameTupleSet(res.Skyline, oneShot.Skyline); !ok || res.Queries != oneShot.Queries {
				t.Fatalf("%s: %d queries, one-shot sq %d; skyline %s", name, res.Queries, oneShot.Queries, diff)
			}
		}
		if !res.Complete {
			if sqBand := band > 1 && (req.Algo == AlgoSQ || !rq); !sqBand {
				t.Fatalf("%s: incomplete without a budget", name)
			}
			return // the SQ band walk found a node it could not branch on
		}

		want := map[string]int{}
		counts := skyline.SkybandCounts(data, band)
		for _, i := range skyline.Skyband(data, band) {
			want[fmt.Sprint(data[i])] = counts[i]
		}
		got := map[string]int{}
		for i, tup := range res.Skyline {
			c := 0
			if res.BandCounts != nil {
				c = res.BandCounts[i]
			}
			got[fmt.Sprint(tup)] = c
		}
		if len(res.Skyline) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: got %v, brute force %v", name, got, want)
		}
	})
}
