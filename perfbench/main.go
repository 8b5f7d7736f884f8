// Command perfbench is hiddensky's end-to-end benchmark. It runs one seeded
// workload, checks every output against ground truth, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload discover_local --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	discover_local  in-process core.Run on hidden.DB, rounds of five discoveries
//	discover_http   service.Manager jobs against web.Server over loopback, under chaos
//	answer_http     closed-loop top-k answers through service.Client over loopback
//
// --trace 0 measures with no tracing and prints the end-to-end metrics;
// --trace 1 runs an untraced phase, then a traced one, and prints the
// per-layer metrics derived from the benchmark's own spans.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // a few rounds/requests only: the benchmark's own test
	workdir  string
	spans    string // where a traced run writes its spans
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runInfo is printed before the result so every run records where and how
// it was measured.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Spans      string  `json:"spans,omitempty"`
}

var workloads = map[string]func(config) (result, error){
	"discover_local": runDiscoverLocal,
	"discover_http":  runDiscoverHTTP,
	"answer_http":    runAnswerHTTP,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: discover_local, discover_http or answer_http")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench", "directory for job snapshots and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1

	res, info, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(map[string]runInfo{"run": info})
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers reach here
	}
	fmt.Println(string(b))
}

func run(cfg config) (result, runInfo, error) {
	info := runInfo{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	fn, ok := workloads[cfg.workload]
	if !ok {
		return result{}, info, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return result{}, info, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return result{}, info, err
	}
	if cfg.trace {
		// Outside the per-run directory, which is removed at exit.
		cfg.spans = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
		info.Spans = cfg.spans
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return result{}, info, err
	}
	defer os.RemoveAll(dir)
	cfg.workdir = dir
	res, err := fn(cfg)
	return res, info, err
}

// setupReps is how many times a run builds its inputs and servers; setup_s
// is the median, and the last build is the one measured.
const setupReps = 5

// setupEnv is a workload's built environment.
type setupEnv interface {
	close()
	// expect computes what the checks compare against (ground truth,
	// reference answers) and checks what setup itself produced. It runs
	// once, after the timed builds, so setup_s times only the program and
	// its inputs.
	expect() error
	// release drops the harness's reference data, so heap_live_mb reads
	// the program's heap. No check runs after it.
	release()
}

// timeSetup builds the environment setupReps times (closing all but the
// last), returns it with the median build time, and readies its checks.
func timeSetup[E setupEnv](cfg config, build func() (E, error)) (E, time.Duration, error) {
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	var env E
	var times samples
	for i := 0; i < reps; i++ {
		if i > 0 {
			env.close()
		}
		runtime.GC()
		t0 := time.Now()
		e, err := build()
		if err != nil {
			return env, 0, err
		}
		times.add(time.Since(t0))
		env = e
	}
	if err := env.expect(); err != nil {
		env.close()
		return env, 0, err
	}
	return env, times.median(), nil
}

// memSnap is the allocation counters a phase's per-op figures derive from.
type memSnap struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// perOp returns allocations, allocated bytes and GC cycles per operation
// between two snapshots.
func perOp(a, b memSnap, ops int) (allocs, bytes, gcs float64) {
	n := float64(ops)
	return float64(b.mallocs-a.mallocs) / n, float64(b.bytes-a.bytes) / n, float64(b.gcs-a.gcs) / n
}

// liveHeapMB forces two collections (the second drains sync.Pool victims)
// and reads the heap the last one marked live.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// perLayerUnits lists every per-layer metric with its unit. Each workload
// reports all of them; a layer the workload never enters reads 0.
var perLayerUnits = map[string]string{
	"core.self_ms":                "ms",
	"hidden.busy_ms":              "ms",
	"hidden.queries":              "count",
	"hidden.query_us_p50":         "us",
	"qcache.hit_ratio":            "ratio",
	"qcache.self_ms":              "ms",
	"engine.overlap":              "ratio",
	"web.client_ms":               "ms",
	"web.rtt_us_p50":              "us",
	"web.handler_us_p50":          "us",
	"web.wire_ms":                 "ms",
	"web.attempts_per_query":      "ratio",
	"retry.retries":               "count",
	"retry.backoff_ms":            "ms",
	"service.queue_ms":            "ms",
	"service.start_ms":            "ms",
	"service.finish_ms":           "ms",
	"service.answer_us_p50":       "us",
	"service.handler_us_p50":      "us",
	"answer.topk_us_p50":          "us",
	"answer.topk_filtered_us_p50": "us",
	"answer.build_ms":             "ms",
	"answer.recover_ms":           "ms",
	"runtime.allocs_per_op":       "count",
	"runtime.alloc_bytes_per_op":  "B",
	"runtime.gc_cycles_per_op":    "count",
	"trace.overhead_ratio":        "ratio",
}

// endToEndUnits lists every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"queries_issued": "count",
	"round_p50_ms":   "ms",
	"round_p90_ms":   "ms",
	"answer_qps":     "1/s",
	"answer_p50_us":  "us",
	"answer_p99_us":  "us",
	"heap_live_mb":   "MB",
}

// layerMetrics starts a per-layer result with every metric at 0.
func layerMetrics() metrics {
	m := metrics{}
	for name, unit := range perLayerUnits {
		m.set(name, unit, 0)
	}
	return m
}

// setLayer overwrites one per-layer metric (its unit comes from the list).
func (m metrics) setLayer(name string, v float64) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	m.set(name, unit, v)
}

// setE2E overwrites one end-to-end metric.
func (m metrics) setE2E(name string, v float64) {
	unit, ok := endToEndUnits[name]
	if !ok {
		panic("perfbench: unlisted end-to-end metric " + name)
	}
	m.set(name, unit, v)
}
