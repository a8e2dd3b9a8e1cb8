package experiment

// Head-to-head sizing-backend comparison: every registered backend (or
// a chosen subset) recovers the same detuned starting designs over the
// Table 2 spec groups, and the harness reports success rate, mean FoM,
// and — the headline — how many simulator evaluations each backend
// spends before its first spec-satisfying candidate. This is the
// white-box-vs-black-box evidence behind the backend subsystem: the
// analytic gm/Id seed should reach spec in a handful of evaluations
// where plain BO needs its whole init phase.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"artisan/internal/backend"
	"artisan/internal/design"
	"artisan/internal/jobs"
	"artisan/internal/measure"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// BackendConfig controls the comparison sweep.
type BackendConfig struct {
	Trials int // detuned starting points per (backend, group) cell
	Seed   int64
	Budget int // simulator evaluations per backend run
	// Detune is the log-normal sigma of the multiplicative jitter applied
	// to every tunable value of the designed starting topology — how
	// badly mis-sized the initial design is.
	Detune   float64
	Backends []string // subset of backend.Names(); empty = all
	Groups   []string // subset of G-1..G-5; empty = all
	// Workers is how many trials run at once (<= 1 runs them in order);
	// per-trial seeds depend only on (Seed, trial, group), so every worker
	// count yields a byte-identical table.
	Workers int
}

// DefaultBackendConfig is the standard protocol: three detuned starts
// per cell, a paper-scale budget, strong detuning.
func DefaultBackendConfig(seed int64) BackendConfig {
	return BackendConfig{Trials: 3, Seed: seed, Budget: 120, Detune: 0.8}
}

// BackendCell aggregates one (backend, group) comparison cell.
type BackendCell struct {
	Backend   string
	Group     string
	Trials    int
	Successes int
	// Degraded counts trials where the requested backend failed and the
	// ladder fell back (the cell then reports the fallback's numbers).
	Degraded int
	// FoM is the mean figure of merit over successful trials.
	FoM float64
	// Evals is the mean simulator evaluations consumed per trial.
	Evals float64
	// EvalsToOK is the mean evaluation index of the first spec-satisfying
	// candidate; failed trials count at the full budget, so an always-
	// failing backend reports the budget itself.
	EvalsToOK float64
}

// SuccessRate renders "k/n".
func (c BackendCell) SuccessRate() string { return fmt.Sprintf("%d/%d", c.Successes, c.Trials) }

// BackendTable is the full comparison.
type BackendTable struct {
	Cells []BackendCell
	Cfg   BackendConfig
}

// Cell looks up one (backend, group) entry.
func (t *BackendTable) Cell(name, group string) (BackendCell, bool) {
	for _, c := range t.Cells {
		if c.Backend == name && c.Group == group {
			return c, true
		}
	}
	return BackendCell{}, false
}

// EvalAdvantage returns how many times fewer evaluations a backend
// needs to reach spec than a baseline backend on a group (0 when either
// cell is missing or the backend never succeeded).
func (t *BackendTable) EvalAdvantage(name, baseline, group string) float64 {
	a, ok1 := t.Cell(name, group)
	b, ok2 := t.Cell(baseline, group)
	if !ok1 || !ok2 || a.EvalsToOK <= 0 || a.Successes == 0 {
		return 0
	}
	return b.EvalsToOK / a.EvalsToOK
}

// String renders the comparison deterministically (fixed column order,
// no map iteration), so the same config always yields the same bytes.
func (t *BackendTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sizing-backend comparison (%d trials/cell, budget %d evals, detune sigma %.2f, seed %d)\n",
		t.Cfg.Trials, t.Cfg.Budget, t.Cfg.Detune, t.Cfg.Seed)
	fmt.Fprintf(&b, "%-9s %-5s %7s %9s %10s %10s %9s\n",
		"Backend", "Group", "Succ.", "Degraded", "FoM", "Evals", "ToSpec")
	for _, c := range t.Cells {
		fom := "-"
		if c.Successes > 0 {
			fom = fmt.Sprintf("%.1f", c.FoM)
		}
		fmt.Fprintf(&b, "%-9s %-5s %7s %9d %10s %10.1f %9.1f\n",
			c.Backend, c.Group, c.SuccessRate(), c.Degraded, fom, c.Evals, c.EvalsToOK)
	}
	return b.String()
}

// backendArchFor mirrors the knowledge base's architecture routing:
// NMCF for the high-GBW group, DFCFC for the huge load, NMC otherwise.
func backendArchFor(group string) string {
	switch group {
	case "G-3":
		return "NMCF"
	case "G-5":
		return "DFCFC"
	default:
		return "NMC"
	}
}

// detuneTopology multiplies every tunable value by a seeded log-normal
// jitter (clamped to e^±1.5), standing in for a badly mis-sized start.
func detuneTopology(t *topology.Topology, seed int64, sigma float64) *topology.Topology {
	rng := rand.New(rand.NewSource(seed))
	jitter := func() float64 {
		v := rng.NormFloat64() * sigma
		if v > 1.5 {
			v = 1.5
		}
		if v < -1.5 {
			v = -1.5
		}
		return math.Exp(v)
	}
	out := t.Clone()
	for i := range out.Stages {
		if out.Stages[i].Gm > 0 {
			out.Stages[i].Gm *= jitter()
		}
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

// backendTrialResult is one (backend, group, trial) outcome.
type backendTrialResult struct {
	ok       bool
	degraded bool
	fom      float64
	evals    int
	ets      int // evaluations to first spec-satisfying candidate
}

// backendTask addresses one (backend, group, trial) unit of the sweep.
type backendTask struct {
	name string
	g    spec.Spec
	seed int64
}

// RunBackends executes the comparison.
func RunBackends(cfg BackendConfig) (*BackendTable, error) {
	return RunBackendsContext(context.Background(), cfg)
}

// RunBackendsContext executes the comparison under a context. Cells are
// emitted in (backend, group) order with backends and groups in the
// configured (or registry/Table-2) order.
func RunBackendsContext(ctx context.Context, cfg BackendConfig) (*BackendTable, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: trials must be >= 1")
	}
	if cfg.Budget < 10 {
		return nil, fmt.Errorf("experiment: backend budget must be >= 10")
	}
	if cfg.Detune < 0 {
		return nil, fmt.Errorf("experiment: detune sigma must be >= 0")
	}
	names := cfg.Backends
	if len(names) == 0 {
		names = backend.Names()
	} else {
		for _, n := range names {
			if _, err := backend.Get(n); err != nil {
				return nil, err
			}
		}
	}
	groups, err := selectGroups(cfg.Groups)
	if err != nil {
		return nil, err
	}
	var tasks []backendTask
	for _, name := range names {
		for _, g := range groups {
			for i := 0; i < cfg.Trials; i++ {
				tasks = append(tasks, backendTask{name: name, g: g, seed: trialSeed(cfg.Seed, i, g.Name)})
			}
		}
	}
	results, err := jobs.Map(ctx, max(cfg.Workers, 1), tasks,
		func(ctx context.Context, t backendTask) (backendTrialResult, error) {
			tr, err := runBackendTrial(ctx, t.name, t.g, cfg, t.seed)
			if err != nil {
				return backendTrialResult{}, fmt.Errorf("experiment: %s on %s: %w", t.name, t.g.Name, err)
			}
			return tr, nil
		})
	if err != nil {
		return nil, err
	}
	table := &BackendTable{Cfg: cfg}
	for ci := 0; ci < len(tasks); ci += cfg.Trials {
		task := tasks[ci]
		table.Cells = append(table.Cells,
			aggregateBackendCell(task.name, task.g.Name, cfg, results[ci:ci+cfg.Trials]))
	}
	return table, nil
}

// runBackendTrial designs the group's architecture, detunes it, and has
// the named backend (with its degradation ladder) recover it. An
// exhausted ladder is a failed trial charged the full budget, not a
// sweep error; context errors still abort.
func runBackendTrial(ctx context.Context, name string, g spec.Spec, cfg BackendConfig, seed int64) (backendTrialResult, error) {
	des, err := design.Design(backendArchFor(g.Name), g, nil)
	if err != nil {
		return backendTrialResult{}, err
	}
	topo := detuneTopology(des.Topo, seed, cfg.Detune)
	p := backend.Problem{
		Spec: g, Topo: topo, Budget: cfg.Budget,
		Eval: func(ctx context.Context, tp *topology.Topology) (measure.Report, error) {
			env := topology.DefaultEnv()
			env.CL, env.RL = g.CL, g.RL
			nl, err := tp.Elaborate(env)
			if err != nil {
				return measure.Report{}, err
			}
			return measure.AnalyzeContext(ctx, nl, "out")
		},
	}
	degraded := false
	res, err := backend.SizeLadder(ctx, name, p, seed, func(from, to string, err error) {
		degraded = true
	})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return backendTrialResult{}, cerr
		}
		return backendTrialResult{degraded: true, evals: cfg.Budget, ets: cfg.Budget}, nil
	}
	tr := backendTrialResult{
		ok: res.Success, degraded: degraded, evals: res.Evals, ets: cfg.Budget,
	}
	if res.Success {
		tr.fom = g.FoMOf(res.Report)
		tr.ets = res.EvalsToSuccess
	}
	return tr, nil
}

// aggregateBackendCell folds one cell's trial results, in trial order,
// into a cell.
func aggregateBackendCell(name, group string, cfg BackendConfig, results []backendTrialResult) BackendCell {
	cell := BackendCell{Backend: name, Group: group, Trials: cfg.Trials}
	var evals, ets int
	for _, r := range results {
		evals += r.evals
		ets += r.ets
		if r.degraded {
			cell.Degraded++
		}
		if r.ok {
			cell.Successes++
			cell.FoM += r.fom
		}
	}
	if cell.Successes > 0 {
		cell.FoM /= float64(cell.Successes)
	}
	n := float64(len(results))
	cell.Evals = float64(evals) / n
	cell.EvalsToOK = float64(ets) / n
	return cell
}
