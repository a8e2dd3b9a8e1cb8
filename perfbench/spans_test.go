package main

import (
	"context"
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [20, 30): together they
		// cover [10, 40), 30 ms, not 20 + 20.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 40 * ms},
		// A child nested inside a, and one running past the parent's end:
		// only [90, 100) of it counts against the parent.
		{ID: 4, Parent: 2, Name: "c", Start: 12 * ms, End: 14 * ms},
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 60 * ms, 2: 18 * ms, 3: 20 * ms, 4: 2 * ms, 5: 30 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %s, want %s", id, self[id], w)
		}
	}
	st := statsByName(spans)
	if st["parent"].Self != 60*ms || st["parent"].Total != 100*ms {
		t.Errorf("parent stats = %+v", st["parent"])
	}
}

func TestRecorderNestsSpansAndNilRecordsNothing(t *testing.T) {
	var off *recorder
	ctx, sp := off.start(context.Background(), "x")
	sp.end()
	if ctx.Value(parentKey{}) != nil || off.finished() != nil {
		t.Fatal("nil recorder recorded")
	}
	r := newRecorder()
	ctx, outer := r.start(context.Background(), "outer")
	r.timed(ctx, "inner", func(context.Context) { time.Sleep(time.Millisecond) })
	outer.end()
	spans := r.finished()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Name != "inner" {
		t.Fatalf("spans = %+v", spans)
	}
	if self := selfTimes(spans); self[spans[0].ID] >= spans[0].dur() {
		t.Fatalf("outer self %s not below its duration %s", self[spans[0].ID], spans[0].dur())
	}
}
