// Command skybench regenerates the paper's evaluation figures.
//
// Usage:
//
//	skybench [-quick] [-seed N] [-csv DIR] [fig13 fig14 ...]
//
// With no figure arguments every figure is regenerated in order. Each
// figure prints as an aligned table of the series the paper plots; -csv
// additionally writes one CSV per figure into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hiddensky/internal/bench"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Int64("seed", 1, "generator seed")
	csvDir := flag.String("csv", "", "also write per-figure CSVs into this directory")
	list := flag.Bool("list", false, "list available figures and exit")
	flag.Parse()

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("%-6s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	runners := bench.All()
	if args := flag.Args(); len(args) > 0 {
		runners = runners[:0]
		for _, a := range args {
			r, ok := bench.ByID(a)
			if !ok {
				fmt.Fprintf(os.Stderr, "skybench: unknown figure %q (try -list)\n", a)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %v\n", err)
			os.Exit(1)
		}
	}

	exit := 0
	for _, r := range runners {
		start := time.Now()
		fig, err := r.Run(cfg)
		elapsed := time.Since(start).Round(time.Millisecond)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skybench: %s failed after %v: %v\n", r.ID, elapsed, err)
			exit = 1
			continue
		}
		fmt.Print(fig.String())
		fmt.Printf("(%s regenerated in %v)\n\n", fig.ID, elapsed)
		if *csvDir != "" {
			f, err := os.Create(filepath.Join(*csvDir, fig.ID+".csv"))
			if err == nil {
				err = fig.WriteCSV(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "skybench: writing %s.csv: %v\n", fig.ID, err)
				exit = 1
			}
		}
	}
	os.Exit(exit)
}
