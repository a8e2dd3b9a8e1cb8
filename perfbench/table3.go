package main

// The table3 workload: back-to-back Table 3 sweeps (all five methods on
// all five groups, one trial per cell, the paper's baseline budget).

import (
	"context"
	"fmt"
	"strings"
	"time"

	"artisan/internal/agents"
	"artisan/internal/experiment"
	"artisan/internal/llm"
	"artisan/internal/opt"
	"artisan/internal/spec"
)

const (
	table3Budget      = 250
	table3Temperature = 0.22
	// table3DigestSweeps leading sweeps form the outcome digest; every
	// run completes at least this many.
	table3DigestSweeps = 2
)

type table3Workload struct {
	cfg config
}

func newTable3(cfg config) (instance, error) {
	w := &table3Workload{cfg: cfg}
	// Warm up every method's code path and the sweep fan-out with one
	// group at the smallest budget the black-box baselines accept. The
	// warm-up is the same for every seed.
	c := w.config(drawSeed(0, "table3-warmup", 0))
	c.Groups = []string{"G-1"}
	c.Budget = 20
	if _, err := experiment.RunContext(context.Background(), c); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *table3Workload) close() {}

func (w *table3Workload) config(seed int64) experiment.Config {
	return experiment.Config{
		Trials: 1, Seed: seed, Budget: table3Budget, Temperature: table3Temperature,
		Methods: experiment.AllMethods(), Cost: experiment.DefaultCostModel(),
		Workers: w.cfg.workers,
	}
}

func (w *table3Workload) measure(ph phase) (*phaseResult, error) {
	ctx := context.Background()
	methods := experiment.AllMethods()
	groups := spec.Groups()
	trials := len(methods) * len(groups)
	var sweeps []*experiment.Table3
	var problems []string
	lat, errs, elapsed := closedLoop(1, ph.seconds, table3DigestSweeps, func(i int) error {
		cfg := w.config(drawSeed(w.cfg.seed, "table3", i))
		sctx, sp := ph.rec.start(ctx, "experiment.RunContext")
		t3, err := experiment.RunContext(sctx, cfg)
		sp.end()
		if err != nil {
			return err
		}
		sweeps = append(sweeps, t3)
		// Every (method, group) cell must be present with its trials.
		seen := map[string]int{}
		for _, c := range t3.Cells {
			seen[string(c.Method)+"|"+c.Group]++
			if c.Trials != cfg.Trials || c.Successes < 0 || c.Successes > c.Trials {
				problems = append(problems, fmt.Sprintf("sweep %d: cell %s/%s has %d/%d", i, c.Method, c.Group, c.Successes, c.Trials))
			}
		}
		for _, m := range methods {
			for _, g := range groups {
				if n := seen[string(m)+"|"+g.Name]; n != 1 {
					problems = append(problems, fmt.Sprintf("sweep %d: cell %s/%s present %d times", i, m, g.Name, n))
				}
			}
		}
		return nil
	})
	res := &phaseResult{elapsed: elapsed, lat: lat, problems: problems}
	for i, err := range errs {
		res.attempted += trials
		if err != nil {
			res.failed += trials
			res.problems = append(res.problems, fmt.Sprintf("sweep %d: %v", i, err))
			continue
		}
		res.ops += trials
	}
	res.notes = append(res.notes, fmt.Sprintf("table3: %d sweeps of %d trials; latency is per sweep", len(lat), trials))

	// Digest: successes per method over the leading sweeps.
	succ := map[experiment.Method]int{}
	total := 0
	for _, t3 := range sweeps[:min(table3DigestSweeps, len(sweeps))] {
		for _, c := range t3.Cells {
			succ[c.Method] += c.Successes
			total += c.Successes
		}
	}
	var parts []string
	for _, m := range methods {
		parts = append(parts, fmt.Sprintf("%s:%d", m, succ[m]))
	}
	res.digest = []string{
		fmt.Sprintf("sweeps=%d", table3DigestSweeps),
		fmt.Sprintf("success=%d/%d", total, table3DigestSweeps*trials),
		"success_by_method=" + strings.Join(parts, ","),
	}
	if ph.rec != nil {
		if err := w.layers(ctx, ph.rec, res, lat); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layers times one trial of every (method, group) cell through the
// layer each method runs on, serially: opt.BOBO, opt.RLBO, and an agent
// session for each LLM designer. Their sum against the sweeps' wall time
// gives the fan-out efficiency.
func (w *table3Workload) layers(ctx context.Context, rec *recorder, res *phaseResult, sweepLat []time.Duration) error {
	var bo, rl []time.Duration
	var sims []int
	sessions := map[string][]time.Duration{}
	var total time.Duration
	for gi, g := range spec.Groups() {
		seed := drawSeed(w.cfg.seed, "table3-trial", gi)
		t0 := time.Now()
		var r *opt.Result
		var err error
		rec.timed(ctx, "opt.bobo", func(ctx context.Context) { r, err = opt.BOBOContext(ctx, g, table3Budget, seed) })
		if err != nil {
			return fmt.Errorf("BOBO on %s: %w", g.Name, err)
		}
		bo = append(bo, time.Since(t0))
		sims = append(sims, r.Sims)

		t0 = time.Now()
		rec.timed(ctx, "opt.rlbo", func(ctx context.Context) { _, err = opt.RLBOContext(ctx, g, table3Budget, seed) })
		if err != nil {
			return fmt.Errorf("RLBO on %s: %w", g.Name, err)
		}
		rl = append(rl, time.Since(t0))

		designers := []struct {
			name  string
			model llm.DesignerModel
		}{
			{"artisan", llm.NewDomainModel(seed, table3Temperature)},
			{"gpt4", llm.NewGPT4Model()},
			{"llama2", llm.NewLlama2Model()},
		}
		for _, d := range designers {
			t0 = time.Now()
			rec.timed(ctx, "agents.session."+d.name, func(ctx context.Context) {
				_, err = agents.NewSession(d.model, g, agents.DefaultOptions()).Run(ctx)
			})
			if err != nil {
				return fmt.Errorf("%s session on %s: %w", d.name, g.Name, err)
			}
			sessions[d.name] = append(sessions[d.name], time.Since(t0))
		}
	}
	for _, d := range [][]time.Duration{bo, rl, sessions["artisan"], sessions["gpt4"], sessions["llama2"]} {
		for _, x := range d {
			total += x
		}
	}
	var simSum int
	for _, s := range sims {
		simSum += s
	}
	res.layers = map[string]float64{
		"opt.bobo_ms":                  ms(meanDuration(bo)),
		"opt.rlbo_ms":                  ms(meanDuration(rl)),
		"opt.bobo_sims":                float64(simSum) / float64(len(sims)),
		"agents.session_ms.artisan":    ms(meanDuration(sessions["artisan"])),
		"agents.session_ms.gpt4":       ms(meanDuration(sessions["gpt4"])),
		"agents.session_ms.llama2":     ms(meanDuration(sessions["llama2"])),
		"experiment.fanout_efficiency": ms(total) / (float64(w.cfg.workers) * ms(meanDuration(sweepLat))),
	}
	res.digest = append(res.digest, fmt.Sprintf("bobo_sims=%v", sims))
	return nil
}
