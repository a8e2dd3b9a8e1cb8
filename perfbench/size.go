package main

// The size workload: a closed loop of sizing-backend runs, each
// recovering a detuned library-architecture design for a jittered spec.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"

	"artisan/internal/backend"
	"artisan/internal/design"
	"artisan/internal/measure"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

const (
	// sizeBudget is the evaluation budget of every run.
	sizeBudget = 60
	// sizeProblems distinct starting designs are drawn per run.
	sizeProblems = 60
	// sizeDetune is the log-normal sigma of the starting-point jitter,
	// the strong detuning of the backend comparison harness.
	sizeDetune = 0.8
	// sizeDigestRuns is how many leading runs the outcome digest covers;
	// every run completes at least this many.
	sizeDigestRuns = 120
)

// sizeRotation is the backend of run i: rotation[i % len]. bo and hybrid
// (GP surrogate) appear twice, whitebox and ga (no surrogate) once, so
// two thirds of the runs load the surrogate and the run-time median sits
// inside the surrogate runs' mode rather than between the two modes.
var sizeRotation = []string{"bo", "hybrid", "whitebox", "bo", "hybrid", "ga"}

// sizeProblem is one starting point.
type sizeProblem struct {
	spec spec.Spec
	topo *topology.Topology
}

type sizeWorkload struct {
	cfg      config
	problems []sizeProblem
}

func newSize(cfg config) (instance, error) {
	probs, err := drawSizeProblems(drawSeed(cfg.seed, "size", 0))
	if err != nil {
		return nil, err
	}
	w := &sizeWorkload{cfg: cfg, problems: probs}
	// Warm up: one run per backend on problems that are the same for
	// every seed.
	warm, err := drawSizeProblems(drawSeed(0, "size-warmup", 0))
	if err != nil {
		return nil, err
	}
	for i, name := range backend.Names() {
		if _, err := w.runOne(context.Background(), nil, warm[i], name, int64(i)); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return w, nil
}

func (w *sizeWorkload) close() {}

// archFor routes a group to the library architecture its knowledge-base
// design uses: NMCF for high GBW, DFCFC for the huge load, NMC otherwise.
func archFor(group string) string {
	switch group {
	case "G-3":
		return "NMCF"
	case "G-5":
		return "DFCFC"
	default:
		return "NMC"
	}
}

func drawSizeProblems(seed int64) ([]sizeProblem, error) {
	rng := rand.New(rand.NewSource(seed))
	groups := spec.Groups()
	out := make([]sizeProblem, 0, sizeProblems)
	for i := 0; i < sizeProblems; i++ {
		g := groups[i%len(groups)]
		base := g.Name
		g.Name += "-jit"
		g.MinGainDB += 4 * (rng.Float64() - 0.5)
		g.MinGBW *= math.Exp(0.3 * (rng.Float64() - 0.5))
		g.MaxPower *= math.Exp(0.3 * (rng.Float64() - 0.5))
		d, err := design.Design(archFor(base), g, nil)
		if err != nil {
			return nil, fmt.Errorf("design %s: %w", g, err)
		}
		out = append(out, sizeProblem{spec: g, topo: detune(d.Topo, rng, sizeDetune)})
	}
	return out, nil
}

// detune multiplies every tunable value by a log-normal jitter clamped
// to e^±1.5: a badly mis-sized starting point.
func detune(t *topology.Topology, rng *rand.Rand, sigma float64) *topology.Topology {
	jitter := func() float64 {
		return math.Exp(math.Max(-1.5, math.Min(1.5, rng.NormFloat64()*sigma)))
	}
	out := t.Clone()
	for i := range out.Stages {
		out.Stages[i].Gm *= jitter()
	}
	for i := range out.Conns {
		c := &out.Conns[i]
		if c.Type.HasGm() {
			c.Gm *= jitter()
		}
		if c.Type.HasC() {
			c.C *= jitter()
		}
		if c.Type.HasR() {
			c.R *= jitter()
		}
	}
	return out
}

// runOne sizes one problem with one backend (and its degradation
// ladder) through an evaluator the benchmark owns.
func (w *sizeWorkload) runOne(ctx context.Context, rec *recorder, p sizeProblem, name string, seed int64) (*backend.Result, error) {
	env := topology.DefaultEnv()
	env.CL, env.RL = p.spec.CL, p.spec.RL
	prob := backend.Problem{
		Spec: p.spec, Topo: p.topo, Budget: sizeBudget,
		Eval: func(ctx context.Context, tp *topology.Topology) (rep measure.Report, err error) {
			ctx, sp := rec.start(ctx, "eval")
			defer sp.end()
			_, el := rec.start(ctx, "topology.elaborate")
			nl, err := tp.Elaborate(env)
			el.end()
			if err != nil {
				return rep, err
			}
			_, an := rec.start(ctx, "measure.analyze")
			defer an.end()
			return measure.AnalyzeContext(ctx, nl, "out")
		},
	}
	ctx, sp := rec.start(ctx, "backend.run."+name)
	defer sp.end()
	return backend.SizeLadder(ctx, name, prob, seed, nil)
}

// sizeRun is the outcome of one run, kept for the digest.
type sizeRun struct {
	backend string
	success bool
	evals   int
}

func (w *sizeWorkload) measure(ph phase) (*phaseResult, error) {
	probs := w.problems
	ctx := context.Background()
	var (
		mu       sync.Mutex
		runs     []sizeRun
		problems []string
	)
	record := func(i int, r sizeRun, problem string) {
		mu.Lock()
		defer mu.Unlock()
		for len(runs) <= i {
			runs = append(runs, sizeRun{})
		}
		runs[i] = r
		if problem != "" {
			problems = append(problems, problem)
		}
	}
	lat, errs, elapsed := closedLoop(w.cfg.workers, ph.seconds, sizeDigestRuns, func(i int) error {
		p := probs[i%len(probs)]
		name := sizeRotation[i%len(sizeRotation)]
		res, err := w.runOne(ctx, ph.rec, p, name, drawSeed(w.cfg.seed, "size-run", i))
		if err != nil {
			return err
		}
		problem := ""
		ok := len(p.spec.Check(res.Report)) == 0
		switch {
		case res.Evals > sizeBudget:
			problem = fmt.Sprintf("run %d (%s): %d evals over budget %d", i, name, res.Evals, sizeBudget)
		case res.Success != ok:
			problem = fmt.Sprintf("run %d (%s): Success=%t but spec.Check says %t", i, name, res.Success, ok)
		}
		record(i, sizeRun{backend: res.Backend, success: res.Success, evals: res.Evals}, problem)
		return nil
	})
	res := &phaseResult{attempted: len(lat), elapsed: elapsed, lat: lat, problems: problems}
	for i, err := range errs {
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("run %d: %v", i, err))
		} else {
			res.ops++
		}
	}
	// Digest over the leading runs, which every run of this seed makes.
	var succ, evals int
	perBackend := map[string]int{}
	for _, r := range runs[:min(sizeDigestRuns, len(runs))] {
		if r.success {
			succ++
			perBackend[r.backend]++
		}
		evals += r.evals
	}
	var pb []string
	for _, name := range backend.Names() {
		pb = append(pb, fmt.Sprintf("%s:%d", name, perBackend[name]))
	}
	res.digest = []string{
		fmt.Sprintf("runs=%d", sizeDigestRuns),
		fmt.Sprintf("success=%d", succ),
		"success_by_backend=" + strings.Join(pb, ","),
		fmt.Sprintf("evals=%d", evals),
		fmt.Sprintf("evals_per_run=%.2f", float64(evals)/sizeDigestRuns),
	}
	if ph.rec != nil {
		res.layers = sizeLayers(ph.rec.finished(), runs)
	}
	return res, nil
}

// sizeLayers turns the run's spans into per-layer figures: each backend
// run's wall time and search self time (run time outside Eval), and the
// per-evaluation elaboration and analysis times.
func sizeLayers(spans []spanRec, runs []sizeRun) map[string]float64 {
	st := statsByName(spans)
	L := map[string]float64{}
	for _, name := range []string{"bo", "hybrid", "whitebox", "ga"} {
		s := st["backend.run."+name]
		L["backend.run_ms."+name] = ms(s.mean())
		L["sizing.search_ms."+name] = ms(s.meanSelf())
	}
	L["topology.elaborate_us"] = us(st["topology.elaborate"].mean())
	L["measure.analyze_us"] = us(st["measure.analyze"].mean())
	var evals int
	for _, r := range runs {
		evals += r.evals
	}
	L["backend.evals_per_run"] = float64(evals) / float64(max(len(runs), 1))
	return L
}
