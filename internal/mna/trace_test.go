package mna

import (
	"context"
	"testing"
)

// TestUntracedContextCallsAllocNoMore pins the "untraced spans are free"
// contract: with no tracer in the context, each *Context wrapper must
// allocate no more than the plain solver call it wraps.
func TestUntracedContextCallsAllocNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool caching; allocation counts are meaningless")
	}
	c := compileOK(t, buildNMC())
	ctx := context.Background()
	pairs := []struct {
		name        string
		plain, ctxd func()
	}{
		{"Sweep",
			func() { _, _ = c.Sweep("out", 1, 1e9, 10) },
			func() { _, _ = c.SweepContext(ctx, "out", 1, 1e9, 10) }},
		{"Poles",
			func() { _, _ = c.Poles() },
			func() { _, _ = c.PolesContext(ctx) }},
		{"Zeros",
			func() { _, _ = c.Zeros("out") },
			func() { _, _ = c.ZerosContext(ctx, "out") }},
	}
	for _, p := range pairs {
		p.plain() // warm pools and memoized state outside the measured runs
		p.ctxd()
		plain := testing.AllocsPerRun(50, p.plain)
		ctxd := testing.AllocsPerRun(50, p.ctxd)
		if ctxd > plain {
			t.Errorf("%sContext: %v allocs/op untraced, %s: %v", p.name, ctxd, p.name, plain)
		}
	}
}
