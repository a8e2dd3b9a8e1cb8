package mna

import (
	"context"
	"strconv"

	"artisan/internal/telemetry"
)

// Context-aware wrappers around the solver entry points. They add
// telemetry spans — one per MNA solve — so a traced design session shows
// where simulation time goes; without a tracer in ctx the span is nil and
// no attribute is formatted, so an untraced call allocates no more than
// its plain twin. The solves themselves are unchanged.

// SweepContext is Sweep with a telemetry span ("mna.sweep") recording
// the matrix size and point count.
func (c *Circuit) SweepContext(ctx context.Context, out string, fStart, fStop float64, perDecade int) ([]TFPoint, error) {
	_, span := telemetry.StartSpan(ctx, "mna.sweep")
	defer span.End()
	pts, err := c.Sweep(out, fStart, fStop, perDecade)
	if span != nil {
		span.SetAttr("size", strconv.Itoa(c.Size()))
		span.SetAttr("points", strconv.Itoa(len(pts)))
	}
	return pts, err
}

// PolesContext is Poles with a telemetry span ("mna.poles").
func (c *Circuit) PolesContext(ctx context.Context) ([]complex128, error) {
	_, span := telemetry.StartSpan(ctx, "mna.poles")
	defer span.End()
	poles, err := c.Poles()
	if span != nil {
		span.SetAttr("n", strconv.Itoa(len(poles)))
	}
	return poles, err
}

// ZerosContext is Zeros with a telemetry span ("mna.zeros").
func (c *Circuit) ZerosContext(ctx context.Context, out string) ([]complex128, error) {
	_, span := telemetry.StartSpan(ctx, "mna.zeros")
	defer span.End()
	zeros, err := c.Zeros(out)
	if span != nil {
		span.SetAttr("n", strconv.Itoa(len(zeros)))
	}
	return zeros, err
}
