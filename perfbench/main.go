// Command perfbench is the repository benchmark. One run drives one
// workload through the program's public Go API and its HTTP surface,
// checks every output, and prints each metric by name with its unit.
//
//	perfbench --workload serve|size|table3|yield --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the run is split in two halves:
// the first runs with the benchmark's span recorder off, the second with
// it on, and the JSON object carries the per-layer metrics plus the
// tracing overhead (second half against first). The lines before it are
// a human-readable report: the latency percentiles used, the outcome
// digest, and any failed output check. WORKLOADS.md describes the
// workloads and the layers each one loads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run builds its workload before timing;
// setup_s is the median, and the last build is the one measured.
const setupReps = 5

// config is what one invocation was asked to do.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int // nproc: the load and the program's pools use this many
}

// phase is one timed stretch of a run.
type phase struct {
	index   int // 0 for the first phase; serve draws its requests per phase
	seconds time.Duration
	rec     *recorder // nil: span recorder off
}

// phaseResult is what a workload reports for one phase.
type phaseResult struct {
	lat       []time.Duration // per-operation latency
	ops       int             // completed operations
	attempted int
	failed    int // failed or refused operations
	elapsed   time.Duration
	problems  []string // failed output checks
	digest    []string // outcome digest, "key=value"
	layers    map[string]float64
	notes     []string
}

// instance is one built workload, ready to measure.
type instance interface {
	measure(ph phase) (*phaseResult, error)
	close()
}

// workload is how to build a workload and which percentile of its
// latencies it reports as latency_tail_ms: the highest of the tailLadder
// that keeps at least minBeyond operations beyond it in a run on a host
// at half the speed this benchmark was tuned on. A percentile chosen
// from each run's own count would switch between runs whose counts
// straddle a rung.
type workload struct {
	build func(cfg config) (instance, error)
	tailQ float64
}

var workloads = map[string]workload{
	"serve":  {newServe, 0.99}, // ~16000 requests per 24 s
	"size":   {newSize, 0.9},   // ~1600 sizing runs per 24 s
	"table3": {newTable3, 1},   // ~5 sweeps per 24 s: the maximum
	"yield":  {newYield, 0.99}, // ~7000 estimates per 24 s
}

type metricDef struct {
	name, unit string
	workload   string // for per-layer metrics: the workload that loads the layer ("" = all)
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_tail_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = []metricDef{
	{"server.handler_ms", "ms", "serve"},
	{"server.roundtrip_overhead_ms", "ms", "serve"},
	{"server.design_run_ms", "ms", "serve"},
	{"llm.model_build_ms", "ms", "serve"},
	{"jobs.cache_hit_share", "ratio", "serve"},
	{"jobs.coalesce_hits", "count", "serve"},
	{"jobs.queue_wait_ms", "ms", "serve"},
	{"jobs.queue_wait_tail_ms", "ms", "serve"},
	{"core.design_ms", "ms", "serve"},
	{"agents.session_ms", "ms", "serve"},
	{"llm.propose_ms", "ms", "serve"},
	{"tool.simulator_ms", "ms", "serve"},
	{"mna.sweep_ms", "ms", "serve"},
	{"mna.poles_ms", "ms", "serve"},
	{"mna.zeros_ms", "ms", "serve"},
	{"gmid.map_ms", "ms", "serve"},
	{"backend.run_ms.bo", "ms", "size"},
	{"backend.run_ms.hybrid", "ms", "size"},
	{"backend.run_ms.whitebox", "ms", "size"},
	{"backend.run_ms.ga", "ms", "size"},
	{"sizing.search_ms.bo", "ms", "size"},
	{"sizing.search_ms.hybrid", "ms", "size"},
	{"sizing.search_ms.whitebox", "ms", "size"},
	{"sizing.search_ms.ga", "ms", "size"},
	{"topology.elaborate_us", "us", "size"},
	{"measure.analyze_us", "us", "size"},
	{"backend.evals_per_run", "count", "size"},
	{"opt.bobo_ms", "ms", "table3"},
	{"opt.rlbo_ms", "ms", "table3"},
	{"opt.bobo_sims", "count", "table3"},
	{"agents.session_ms.artisan", "ms", "table3"},
	{"agents.session_ms.gpt4", "ms", "table3"},
	{"agents.session_ms.llama2", "ms", "table3"},
	{"experiment.fanout_efficiency", "ratio", "table3,yield"},
	{"measure.mc_setup_ms", "ms", "yield"},
	{"measure.mc_sample_us", "us", "yield"},
	{"measure.mc_sample_tail_us", "us", "yield"},
	{"bench.task_ms", "ms", "yield"},
	{"trace.overhead_pct", "%", ""},
	{"trace.spans", "count", ""},
}

func (m metricDef) appliesTo(workload string) bool {
	if m.workload == "" {
		return true
	}
	for _, w := range strings.Split(m.workload, ",") {
		if w == workload {
			return true
		}
	}
	return false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve, size, table3 or yield")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the inputs are drawn from it")
	flag.IntVar(&seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	wl, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve|size|table3|yield --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)

	out := bufio.NewWriter(os.Stdout)
	res, err := run(cfg, wl, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(b))
	out.Flush()
	if !res.Correct {
		os.Exit(1)
	}
}

// run builds the workload setupReps times, measures it, and assembles
// the result line; the report lines go to w.
func run(cfg config, wl workload, w *bufio.Writer) (*resultLine, error) {
	var inst instance
	setups := make([]time.Duration, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.build(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()

	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %t workers %d\n",
		cfg.workload, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, cfg.workers)
	fmt.Fprintf(w, "setup: median %s of %v\n", medianDuration(setups), setups)

	var res *phaseResult
	metrics := map[string]metricOut{}
	if !cfg.trace {
		var err error
		res, err = inst.measure(phase{index: 0, seconds: cfg.seconds})
		if err != nil {
			return nil, err
		}
		lat := summarize(res.lat)
		tail, windows := windowedTail(res.lat, wl.tailQ)
		fmt.Fprintf(w, "latency: %s\nlatency_tail_ms: %s, the median over %d windows of %d operations\n",
			lat.Percents, percentileLabel(wl.tailQ), windows, len(res.lat)/windows)
		values := map[string]float64{
			"setup_s":         medianDuration(setups).Seconds(),
			"ops_per_s":       float64(res.ops) / res.elapsed.Seconds(),
			"latency_p50_ms":  ms(lat.P50),
			"latency_tail_ms": ms(tail),
			"peak_rss_mb":     peakRSSMB(),
		}
		for _, m := range endToEnd {
			metrics[m.name] = metricOut{values[m.name], m.unit}
		}
	} else {
		base, err := inst.measure(phase{index: 0, seconds: cfg.seconds / 2})
		if err != nil {
			return nil, err
		}
		rec := newRecorder()
		traced, err := inst.measure(phase{index: 1, seconds: cfg.seconds / 2, rec: rec})
		if err != nil {
			return nil, err
		}
		// The traced phase's failures and checks count like the base's.
		traced.problems = append(base.problems, traced.problems...)
		traced.attempted += base.attempted
		traced.failed += base.failed
		var notes []string
		for _, n := range base.notes {
			notes = append(notes, "untraced half: "+n)
		}
		for _, n := range traced.notes {
			notes = append(notes, "traced half: "+n)
		}
		traced.notes = notes
		fmt.Fprintf(w, "digest %s traced half: %s\n", cfg.workload, strings.Join(traced.digest, " "))
		traced.digest = base.digest
		res = traced
		a, b := summarize(base.lat), summarize(traced.lat)
		overhead := 100 * (ms(b.P50)/ms(a.P50) - 1)
		fmt.Fprintf(w, "untraced half: %s\ntraced half:   %s\ntracing overhead on p50: %+.2f%%\n",
			a.Percents, b.Percents, overhead)
		spans := rec.finished()
		if res.layers == nil {
			res.layers = map[string]float64{}
		}
		res.layers["trace.overhead_pct"] = overhead
		res.layers["trace.spans"] = float64(len(spans))
		path, err := writeTrace(".bench_build/perfbench/traces",
			fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed), spans)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d spans written to %s\n", len(spans), path)
		for _, m := range perLayer {
			v, ok := res.layers[m.name]
			if !ok && m.appliesTo(cfg.workload) {
				res.problems = append(res.problems, "per-layer metric "+m.name+" missing")
			}
			metrics[m.name] = metricOut{v, m.unit}
		}
		printLayers(w, cfg.workload, res.layers)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d failed %d error_rate %.6f\n",
		res.attempted, res.failed, float64(res.failed)/float64(max(res.attempted, 1)))
	fmt.Fprintf(w, "digest %s: %s\n", cfg.workload, strings.Join(res.digest, " "))
	for _, p := range res.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return &resultLine{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics,
	}, nil
}

func printLayers(w *bufio.Writer, workload string, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "per-layer (%s):\n", workload)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %.6g\n", n, layers[n])
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM); where
// /proc is unavailable it falls back to the Go runtime's total.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// drawSeed mixes the workload seed with a stream label and an index, so
// every input stream of every phase is a pure function of --seed.
func drawSeed(seed int64, stream string, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	for _, c := range stream {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	return int64(h>>24) + 1 // in [1, 2^40]: room for the program's own seed offsets
}

// closedLoop runs op from workers goroutines until the deadline passes
// and at least minOps operations have started. Each operation gets the
// next index; latencies and errors come back in index order.
func closedLoop(workers int, d time.Duration, minOps int, op func(i int) error) (lat []time.Duration, errs []error, elapsed time.Duration) {
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(d)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= minOps && !time.Now().Before(deadline) {
			return 0, false
		}
		i := next
		next++
		lat = append(lat, 0)
		errs = append(errs, nil)
		return i, true
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				t0 := time.Now()
				err := op(i)
				d := time.Since(t0)
				mu.Lock()
				lat[i], errs[i] = d, err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, errs, time.Since(start)
}
