package experiment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"artisan/internal/jobs"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/spec"
)

// Monte-Carlo yield: how robustly a finished design meets its spec under
// process variation and mismatch. This quantifies the paper's
// interpretability argument — knowledge-driven designs carry deliberate
// margin, while black-box search tends to stop on a constraint boundary,
// so equal nominal performance can hide very different yields.
//
// Samples are embarrassingly parallel: the run splits them into one
// contiguous shard per worker and fans the shards out through jobs.Map,
// the same fan-out every experiment sweep uses. Determinism contract:
// each sample derives its own RNG stream from (Seed, index) via a
// splitmix64 mix and is measured independently, and the shards' pass and
// violation tallies are sums — so the result is identical for any
// Workers value, including 1.

// YieldOpts configures the Monte-Carlo run.
type YieldOpts struct {
	Samples int     // Monte-Carlo trials (default 200)
	Sigma   float64 // log-normal σ applied to every R/C/gm value (default 0.05)
	Seed    int64
	// Workers is the number of sample shards run at once, each with its
	// own measurement session (0 = GOMAXPROCS, 1 = one shard, in order).
	Workers int
}

// DefaultYieldOpts matches a mature-process 5 % component spread.
func DefaultYieldOpts(seed int64) YieldOpts {
	return YieldOpts{Samples: 200, Sigma: 0.05, Seed: seed}
}

// YieldResult summarises the run.
type YieldResult struct {
	Samples int
	Pass    int
	// WorstViolation counts how often each metric caused a failure.
	Violations map[string]int
}

// Yield returns the fraction of passing samples.
func (r YieldResult) Yield() float64 {
	if r.Samples == 0 {
		return 0
	}
	return float64(r.Pass) / float64(r.Samples)
}

// String renders the result.
func (r YieldResult) String() string {
	return fmt.Sprintf("yield %.1f%% (%d/%d)", 100*r.Yield(), r.Pass, r.Samples)
}

// splitmixSource is a splitmix64 rand.Source64. Unlike the standard
// lagged-Fibonacci source, reseeding costs two multiplies instead of 607
// state updates, which matters when every Monte-Carlo sample gets its own
// stream. Streams are derived from (run seed, sample index), so a
// sample's draws are identical no matter which worker runs it.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) seedSample(seed int64, i int) {
	s.state = uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
}

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// MonteCarloYield perturbs every R, C and VCCS value of the behavioral
// netlist log-normally and re-measures against the spec, sharding samples
// across opts.Workers goroutines.
func MonteCarloYield(nl *netlist.Netlist, sp spec.Spec, opts YieldOpts) (YieldResult, error) {
	if opts.Samples <= 0 {
		opts.Samples = 200
	}
	if opts.Sigma <= 0 {
		opts.Sigma = 0.05
	}
	if err := nl.Validate(); err != nil {
		return YieldResult{}, fmt.Errorf("experiment: %w", err)
	}
	an, err := measure.NewMCAnalyzer(nl, "out")
	if err != nil {
		return YieldResult{}, fmt.Errorf("experiment: %w", err)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One contiguous [lo, hi) shard per worker, so each worker builds one
	// MCSession and one scale buffer for all of its samples.
	type shard struct{ lo, hi int }
	var shards []shard
	chunk := (opts.Samples + workers - 1) / workers
	for lo := 0; lo < opts.Samples; lo += chunk {
		shards = append(shards, shard{lo, min(lo+chunk, opts.Samples)})
	}

	// Every per-sample quantity depends only on the sample index, and the
	// shard tallies are sums, so the merged result is the same for any
	// sharding.
	tallies, err := jobs.Map(context.TODO(), len(shards), shards,
		func(_ context.Context, sh shard) (YieldResult, error) {
			part := YieldResult{Violations: map[string]int{}}
			sess := an.Session()
			scale := make([]float64, len(nl.Devices))
			var src splitmixSource
			rng := rand.New(&src)
			for i := sh.lo; i < sh.hi; i++ {
				src.seedSample(opts.Seed, i)
				for d := range nl.Devices {
					switch nl.Devices[d].Kind {
					case netlist.Resistor, netlist.Capacitor, netlist.VCCS:
						scale[d] = math.Exp(rng.NormFloat64() * opts.Sigma)
					default:
						scale[d] = 1
					}
				}
				rep, err := sess.Analyze(scale)
				if err != nil {
					part.Violations["simulation"]++
					continue
				}
				vs := sp.Check(rep)
				if len(vs) == 0 {
					part.Pass++
				}
				for _, v := range vs {
					part.Violations[v.Metric]++
				}
			}
			return part, nil
		})
	if err != nil {
		return YieldResult{}, fmt.Errorf("experiment: %w", err)
	}

	res := YieldResult{Samples: opts.Samples, Violations: map[string]int{}}
	for _, part := range tallies {
		res.Pass += part.Pass
		for m, n := range part.Violations {
			res.Violations[m] += n
		}
	}
	return res, nil
}
