package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"hiddensky/internal/core"
	"hiddensky/internal/service"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks the
// program's output against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload for a few rounds or requests, traced and
// untraced, and checks that the checks pass and that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := config{workload: w.Name, seed: 7, seconds: 1, trace: traced, smoke: true, workdir: t.TempDir()}
			res, _, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
		}
	}
}

// TestChecksCatchCorruptSkyline runs real discoveries and corrupts their
// output: a dropped tuple, a dominated tuple, a wrong band count and an
// incomplete run must each fail the ground-truth check.
func TestChecksCatchCorruptSkyline(t *testing.T) {
	env, err := buildLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.expect(); err != nil {
		t.Fatal(err)
	}
	var band, sky localRequest
	for _, r := range env.reqs {
		switch {
		case r.req.Band > 0:
			band = r
		case r.name == "rq":
			sky = r
		}
	}
	res, err := core.Run(sky.store.db, sky.req, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sky.want.check(res.Skyline, nil, res.Complete); err != nil {
		t.Fatalf("clean skyline rejected: %v", err)
	}
	dropped := res.Skyline[1:]
	if sky.want.check(dropped, nil, true) == nil {
		t.Error("a skyline missing a tuple passed the check")
	}
	dominated := append([][]int{}, res.Skyline...)
	worse := append([]int(nil), dominated[0]...)
	for i := range worse {
		worse[i]++
	}
	dominated[0] = worse
	if sky.want.check(dominated, nil, true) == nil {
		t.Error("a skyline holding a dominated tuple passed the check")
	}
	if sky.want.check(res.Skyline, nil, false) == nil {
		t.Error("an incomplete run passed the check")
	}

	bres, err := core.Run(band.store.db, band.req, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := band.want.check(bres.Skyline, bres.BandCounts, bres.Complete); err != nil {
		t.Fatalf("clean band rejected: %v", err)
	}
	counts := append([]int(nil), bres.BandCounts...)
	counts[len(counts)-1]++
	if band.want.check(bres.Skyline, counts, true) == nil {
		t.Error("a band with a wrong dominator count passed the check")
	}
}

// TestChecksCatchCorruptAnswer takes a real answer served over HTTP and
// corrupts it: a changed score and a swapped tuple must each fail.
func TestChecksCatchCorruptAnswer(t *testing.T) {
	env, err := buildAnswers(config{seed: 3, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	if err := env.expect(); err != nil {
		t.Fatal(err)
	}
	for i, r := range env.reqs[:64] {
		resp, err := env.clients[0].AnswerTopK(r)
		if err != nil {
			t.Fatal(err)
		}
		if !matches(resp, env.want[i]) {
			t.Fatalf("request %d: clean answer rejected", i)
		}
		if len(resp.Tuples) < 2 {
			continue
		}
		scored := clone(resp)
		scored.Scores[0] = math.Nextafter(scored.Scores[0], math.Inf(1))
		swapped := clone(resp)
		swapped.Tuples[0], swapped.Tuples[1] = swapped.Tuples[1], swapped.Tuples[0]
		if matches(scored, env.want[i]) || matches(swapped, env.want[i]) {
			t.Fatalf("request %d: a corrupted answer passed the check", i)
		}
		return
	}
	t.Fatal("no request in the stream answered two tuples")
}

func clone(r service.AnswerTopKResponse) service.AnswerTopKResponse {
	r.Tuples = append([][]int(nil), r.Tuples...)
	r.Scores = append([]float64(nil), r.Scores...)
	return r
}
