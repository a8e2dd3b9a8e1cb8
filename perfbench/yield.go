package main

// The yield workload: Monte-Carlo yield estimates over generated
// topologies, through the restamp-and-refactor fast path.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"artisan/internal/bench"
	"artisan/internal/experiment"
	"artisan/internal/measure"
	"artisan/internal/netlist"
)

const (
	// yieldTasks generated topologies form the task suite: the draws
	// bench.NewTask makes for seeds yieldSuiteSeed+i. The suite is the
	// same for every --seed, which picks the visiting order and the
	// Monte-Carlo samples. Estimate cost is heavy-tailed across
	// topologies (a few draws take the full-analysis fallback on most
	// samples), so a per-seed suite would make the tail latency a
	// property of the draw rather than of the program.
	yieldTasks     = 512
	yieldSuiteSeed = 1_000_000
	// yieldSamples and yieldSigma fix the size of every estimate.
	yieldSamples = 256
	yieldSigma   = 0.05
	// yieldDigestOps leading estimates form the outcome digest; every
	// run completes at least this many.
	yieldDigestOps = 200
	// yieldSerialChecks leading estimates are re-run serially after the
	// timed loop and must match the sharded result exactly.
	yieldSerialChecks = 8
	// yieldEfficiencyOps leading estimates of the traced phase are re-run
	// serially to measure the fan-out efficiency.
	yieldEfficiencyOps = 100
	// yieldProbeSamples fast-path samples per task time MCSession.Analyze.
	yieldProbeSamples = 64
)

type yieldWorkload struct {
	cfg      config
	tasks    []*bench.Task // in the seed's visiting order
	taskTime time.Duration // mean bench.NewTask time of this setup
}

func newYield(cfg config) (instance, error) {
	w := &yieldWorkload{cfg: cfg}
	var times []time.Duration
	order := rand.New(rand.NewSource(drawSeed(cfg.seed, "yield-order", 0))).Perm(yieldTasks)
	for _, i := range order {
		t0 := time.Now()
		t, err := bench.NewTask(i, yieldSuiteSeed+int64(i))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		w.tasks = append(w.tasks, t)
	}
	w.taskTime = meanDuration(times)
	return w, nil
}

func (w *yieldWorkload) close() {}

func (w *yieldWorkload) opts(i, workers int) experiment.YieldOpts {
	return experiment.YieldOpts{Samples: yieldSamples, Sigma: yieldSigma,
		Seed: drawSeed(w.cfg.seed, "yield-mc", i), Workers: workers}
}

func (w *yieldWorkload) measure(ph phase) (*phaseResult, error) {
	tasks := w.tasks
	ctx := context.Background()
	var results []experiment.YieldResult
	var problems []string
	lat, errs, elapsed := closedLoop(1, ph.seconds, yieldDigestOps, func(i int) error {
		t := tasks[i%len(tasks)]
		var r experiment.YieldResult
		var err error
		ph.rec.timed(ctx, "experiment.MonteCarloYield", func(context.Context) {
			r, err = experiment.MonteCarloYield(t.Netlist, t.Spec, w.opts(i, w.cfg.workers))
		})
		if err != nil {
			return err
		}
		for len(results) <= i {
			results = append(results, experiment.YieldResult{})
		}
		results[i] = r
		if p := checkYield(r); p != "" {
			problems = append(problems, fmt.Sprintf("estimate %d: %s", i, p))
		}
		return nil
	})
	res := &phaseResult{attempted: len(lat), elapsed: elapsed, lat: lat, problems: problems}
	for i, err := range errs {
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("estimate %d: %v", i, err))
		} else {
			res.ops++
		}
	}

	// The sharded estimate must equal the serial one sample for sample.
	checks := yieldSerialChecks
	if ph.rec != nil {
		checks = yieldEfficiencyOps
	}
	var serial time.Duration
	checks = min(checks, len(results))
	for i := 0; i < checks; i++ {
		t := tasks[i%len(tasks)]
		t0 := time.Now()
		r, err := experiment.MonteCarloYield(t.Netlist, t.Spec, w.opts(i, 1))
		serial += time.Since(t0)
		if err != nil {
			return nil, err
		}
		if r.Pass != results[i].Pass || !reflect.DeepEqual(r.Violations, results[i].Violations) {
			res.problems = append(res.problems, fmt.Sprintf("estimate %d: serial %s != sharded %s", i, r, results[i]))
		}
	}

	pass, samples := 0, 0
	for _, r := range results[:min(yieldDigestOps, len(results))] {
		pass += r.Pass
		samples += r.Samples
	}
	unstable, pmOut := 0, 0
	for _, t := range tasks {
		if !t.Report.Stable {
			unstable++
		}
		if t.Report.PM > 180 || t.Report.PM <= -180 {
			pmOut++
		}
	}
	res.digest = []string{
		fmt.Sprintf("estimates=%d", yieldDigestOps),
		fmt.Sprintf("pass=%d/%d", pass, samples),
		fmt.Sprintf("tasks=%d", len(tasks)),
		fmt.Sprintf("unstable_tasks=%d", unstable),
		fmt.Sprintf("pm_out_of_range_tasks=%d", pmOut),
	}
	if ph.rec != nil {
		var parallel time.Duration
		for _, d := range lat[:checks] {
			parallel += d
		}
		res.layers = w.layers(ctx, ph.rec, tasks)
		res.layers["experiment.fanout_efficiency"] = ms(serial) / (float64(w.cfg.workers) * ms(parallel))
	}
	return res, nil
}

// checkYield checks an estimate's accounting: passing plus failing
// samples equal Samples, and every failing sample names at least one
// and at most every violated metric.
func checkYield(r experiment.YieldResult) string {
	if r.Samples != yieldSamples {
		return fmt.Sprintf("%d samples, want %d", r.Samples, yieldSamples)
	}
	failing := r.Samples - r.Pass
	if r.Pass < 0 || failing < 0 {
		return fmt.Sprintf("pass %d out of [0, %d]", r.Pass, r.Samples)
	}
	violations := 0
	for _, n := range r.Violations {
		violations += n
	}
	// A failing sample violates one to five spec metrics, or is one
	// "simulation" failure.
	if violations < failing || violations > 5*failing {
		return fmt.Sprintf("%d failing samples but %d violations %v", failing, violations, r.Violations)
	}
	return ""
}

// layers times the Monte-Carlo fast path's two halves directly: the
// analyzer set-up (compile, nominal GBW, nominal poles) and one sample.
func (w *yieldWorkload) layers(ctx context.Context, rec *recorder, tasks []*bench.Task) map[string]float64 {
	rng := rand.New(rand.NewSource(drawSeed(w.cfg.seed, "yield-probe", 0)))
	var setups, samples []time.Duration
	for _, t := range tasks {
		t0 := time.Now()
		var an *measure.MCAnalyzer
		var err error
		rec.timed(ctx, "measure.NewMCAnalyzer", func(context.Context) { an, err = measure.NewMCAnalyzer(t.Netlist, "out") })
		setups = append(setups, time.Since(t0))
		if err != nil {
			continue
		}
		sess := an.Session()
		scale := make([]float64, len(t.Netlist.Devices))
		for k := 0; k < yieldProbeSamples; k++ {
			for d, dev := range t.Netlist.Devices {
				scale[d] = 1
				switch dev.Kind {
				case netlist.Resistor, netlist.Capacitor, netlist.VCCS:
					scale[d] = math.Exp(rng.NormFloat64() * yieldSigma)
				}
			}
			t0 := time.Now()
			// A sample that falls back to the full analysis and fails is
			// still a timed sample; the timed loop checks the outcomes.
			rec.timed(ctx, "measure.MCSession.Analyze", func(context.Context) { _, _ = sess.Analyze(scale) })
			samples = append(samples, time.Since(t0))
		}
	}
	v := durationsMs(samples)
	sort.Float64s(v)
	return map[string]float64{
		"measure.mc_setup_ms":       ms(meanDuration(setups)),
		"measure.mc_sample_us":      1000 * quantile(v, 0.5),
		"measure.mc_sample_tail_us": 1000 * quantile(v, tailPercentile(len(v))),
		"bench.task_ms":             ms(w.taskTime),
	}
}
