package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder is the benchmark's own span recorder. It wraps calls into the
// program's layers from the benchmark's side; spans stay in memory and
// are written out when the run ends. A nil recorder records nothing,
// which is how the untraced phase runs.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span. Times are offsets from the recorder's
// epoch; Parent is 0 for a root.
type spanRec struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s spanRec) dur() time.Duration { return s.End - s.Start }

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type parentKey struct{}

// span is an open span; end closes it.
type span struct {
	r      *recorder
	id     int
	parent int
	name   string
	start  time.Duration
}

// start opens a span named name under the span carried by ctx.
func (r *recorder) start(ctx context.Context, name string) (context.Context, *span) {
	if r == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(parentKey{}).(int)
	r.mu.Lock()
	id := len(r.spans) + 1
	// Reserve the slot so ids stay dense and children can point at it.
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Name: name})
	r.mu.Unlock()
	s := &span{r: r, id: id, parent: parent, name: name, start: time.Since(r.epoch)}
	return context.WithValue(ctx, parentKey{}, id), s
}

func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Since(s.r.epoch)
	s.r.mu.Lock()
	s.r.spans[s.id-1] = spanRec{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, End: end}
	s.r.mu.Unlock()
}

// timed runs fn inside a span named name.
func (r *recorder) timed(ctx context.Context, name string, fn func(context.Context)) {
	ctx, s := r.start(ctx, name)
	fn(ctx)
	s.end()
}

func (r *recorder) finished() []spanRec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]spanRec, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other (concurrent work under one parent) are merged first, so covered
// time is never counted twice.
func selfTimes(spans []spanRec) map[int]time.Duration {
	children := map[int][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent spanRec, kids []spanRec) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// spanStat aggregates the spans sharing one name.
type spanStat struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

func (s spanStat) mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

func (s spanStat) meanSelf() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Self / time.Duration(s.Count)
}

// statsByName sums durations and self times per span name.
func statsByName(spans []spanRec) map[string]spanStat {
	self := selfTimes(spans)
	out := map[string]spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.dur()
		st.Self += self[s.ID]
		out[s.Name] = st
	}
	return out
}

// writeTrace stores the recorded spans as JSON under dir.
func writeTrace(dir, name string, spans []spanRec) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
