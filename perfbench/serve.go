package main

// The serve workload: a closed loop of POST /design requests against an
// in-process server over real loopback HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"artisan/internal/llm"
	"artisan/internal/measure"
	"artisan/internal/server"
	"artisan/internal/spec"
	"artisan/internal/telemetry"
)

const (
	// serveRepeatShare of the requests repeat an earlier request
	// verbatim, drawn from the last serveRepeatWindow distinct requests
	// so that the repeat is still in the server's 128-entry result cache.
	serveRepeatShare  = 0.25
	serveRepeatWindow = 64
	// serveTemperature is the paper's Artisan-LLM operating temperature.
	serveTemperature = 0.22
	// serveWarmup distinct requests run in setup, outside the measured
	// stream.
	serveWarmup = 64
	// serveDigestOps is how many leading requests the outcome digest
	// covers; every phase completes at least this many.
	serveDigestOps = 2000
	// serveTraceCap is the trace ring size of a traced run. The span
	// figures are means over the last serveTraceCap design runs of the
	// traced half; a ring holding every run of a run grows the heap
	// enough to slow the server it measures.
	serveTraceCap = 1024
)

// designReq is one request of the stream.
type designReq struct {
	body []byte
	spec spec.Spec // the spec the server parses from body
	key  int       // index of the distinct request; repeats share it
}

// requestStream draws the requests of one phase on demand, in index
// order, so request i is a pure function of the seed and i however many
// requests a phase gets through: custom specs jittered around the five
// Table 2 groups, each with its own designer seed, and a
// serveRepeatShare of verbatim repeats.
type requestStream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	reqs     []designReq
	distinct []int // indices into reqs of the distinct requests
}

func newRequestStream(seed int64) *requestStream {
	return &requestStream{rng: rand.New(rand.NewSource(seed))}
}

// get returns request i, drawing the stream up to it.
func (s *requestStream) get(i int) (designReq, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		if err := s.draw(); err != nil {
			return designReq{}, err
		}
	}
	return s.reqs[i], nil
}

func (s *requestStream) draw() error {
	rng := s.rng
	if len(s.distinct) > 0 && rng.Float64() < serveRepeatShare {
		lo := max(0, len(s.distinct)-serveRepeatWindow)
		s.reqs = append(s.reqs, s.reqs[s.distinct[lo+rng.Intn(len(s.distinct)-lo)]])
		return nil
	}
	groups := spec.Groups()
	g := groups[rng.Intn(len(groups))]
	g.Name += "-jit"
	g.MinGainDB += 4 * (rng.Float64() - 0.5)
	g.MinGBW *= math.Exp(0.3 * (rng.Float64() - 0.5))
	g.MinPM += 6 * (rng.Float64() - 0.5)
	g.MaxPower *= math.Exp(0.3 * (rng.Float64() - 0.5))
	wire, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	sp, err := spec.ParseJSON(wire)
	if err != nil {
		return fmt.Errorf("jittered spec rejected: %w", err)
	}
	body, err := json.Marshal(map[string]any{
		"spec":        json.RawMessage(wire),
		"seed":        1 + rng.Int63n(1<<40),
		"temperature": serveTemperature,
	})
	if err != nil {
		return err
	}
	s.distinct = append(s.distinct, len(s.reqs))
	s.reqs = append(s.reqs, designReq{body: body, spec: sp, key: len(s.distinct) - 1})
	return nil
}

type serveWorkload struct {
	cfg     config
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	streams []*requestStream // one per phase
}

func newServe(cfg config) (instance, error) {
	w := &serveWorkload{cfg: cfg}
	phases := 1
	opts := server.Options{Workers: cfg.workers}
	if cfg.trace {
		phases = 2
		opts.TraceCapacity = serveTraceCap
	}
	for p := 0; p < phases; p++ {
		w.streams = append(w.streams, newRequestStream(drawSeed(cfg.seed, "serve", p)))
	}
	srv, err := server.NewServer(opts)
	if err != nil {
		return nil, err
	}
	w.srv = srv
	w.ts = httptest.NewServer(srv)
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.workers,
		MaxIdleConnsPerHost: cfg.workers,
		DisableCompression:  true,
	}}
	// Warm up connections, code paths and the pool with requests drawn
	// from their own stream, so they share no cache entry with the
	// measured streams. The warm-up is the same for every seed, so the
	// set-up time does not depend on the draw.
	warm := newRequestStream(drawSeed(0, "serve-warmup", 0))
	_, errs, _ := closedLoop(cfg.workers, 0, serveWarmup, func(i int) error {
		req, err := warm.get(i)
		if err != nil {
			return err
		}
		status, _, err := w.post(req.body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		return err
	})
	for _, err := range errs {
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return w, nil
}

func (w *serveWorkload) close() {
	if w.ts != nil {
		w.client.CloseIdleConnections()
		w.ts.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.srv.Shutdown(ctx)
	}
}

// designReply is the part of the POST /design reply the checks read.
type designReply struct {
	Success    bool   `json:"success"`
	Arch       string `json:"arch"`
	FailReason string `json:"failReason"`
	Metrics    *struct {
		GainDB float64 `json:"gainDB"`
		GBWHz  float64 `json:"gbwHz"`
		PMDeg  float64 `json:"pmDeg"`
		PowerW float64 `json:"powerW"`
		Stable bool    `json:"stable"`
	} `json:"metrics"`
}

func (w *serveWorkload) post(body []byte) (int, []byte, error) {
	resp, err := w.client.Post(w.ts.URL+"/design", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// served is what the client observed for one successful request.
type served struct {
	lat   time.Duration // from sending the request to reading the whole reply
	reply designReply
}

// measure runs a closed loop: nproc connections, each sending its next
// request as soon as the last reply is read, so the load follows the
// server's capacity and no backlog can build up.
func (w *serveWorkload) measure(ph phase) (*phaseResult, error) {
	stream := w.streams[ph.index]
	var before []promSample
	if ph.rec != nil {
		var err error
		if before, err = w.scrape(); err != nil {
			return nil, err
		}
	}
	waits := newQueueWaits()
	stopPoll := make(chan struct{})
	var pollDone sync.WaitGroup
	if ph.rec != nil {
		pollDone.Add(1)
		go func() {
			defer pollDone.Done()
			waits.poll(w.srv, stopPoll)
		}()
	}

	var (
		mu  sync.Mutex
		obs []served
	)
	ctx := context.Background()
	start := time.Now()
	_, errs, elapsed := closedLoop(w.cfg.workers, ph.seconds, serveDigestOps, func(i int) error {
		req, err := stream.get(i)
		if err != nil {
			return err
		}
		_, sp := ph.rec.start(ctx, "serve.request")
		t0 := time.Now()
		status, body, err := w.post(req.body)
		lat := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		var r designReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decode reply: %w", err)
		}
		mu.Lock()
		defer mu.Unlock()
		for len(obs) <= i {
			obs = append(obs, served{})
		}
		obs[i] = served{lat: lat, reply: r}
		return nil
	})

	res := &phaseResult{attempted: len(errs), elapsed: elapsed}
	w.check(stream, obs, errs, res)

	if ph.rec != nil {
		close(stopPoll)
		pollDone.Wait()
		if err := w.layers(res, before, waits, start, ph.rec); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check validates every reply: status 200, a decodable body, metrics
// that meet the requested spec whenever success is claimed, and repeats
// that agree with the first reply for the same request. Every
// successful request's latency goes into res.lat.
func (w *serveWorkload) check(stream *requestStream, obs []served, errs []error, res *phaseResult) {
	first := map[int]designReply{}
	success, digestDistinct := 0, 0
	for i, err := range errs {
		if err != nil {
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		res.ops++
		o := obs[i]
		res.lat = append(res.lat, o.lat)
		req, _ := stream.get(i) // drawn already: the request was sent
		r := o.reply
		if r.Success {
			if i < serveDigestOps {
				success++
			}
			if r.Metrics == nil {
				res.problems = append(res.problems, fmt.Sprintf("request %d: success without metrics", i))
				continue
			}
			rep := measure.Report{GainDB: r.Metrics.GainDB, GBW: r.Metrics.GBWHz,
				PM: r.Metrics.PMDeg, Power: r.Metrics.PowerW, Stable: r.Metrics.Stable}
			if vs := req.spec.Check(rep); len(vs) > 0 {
				res.problems = append(res.problems, fmt.Sprintf("request %d: success but %s", i, spec.Describe(vs)))
			}
		}
		if f, ok := first[req.key]; !ok {
			first[req.key] = r
			if i < serveDigestOps {
				digestDistinct++
			}
		} else if !sameReply(f, r) {
			res.problems = append(res.problems, fmt.Sprintf("request %d: repeat of request key %d disagrees", i, req.key))
		}
	}
	// The digest covers the leading requests, which every phase of this
	// seed sends.
	res.digest = append(res.digest,
		fmt.Sprintf("requests=%d", serveDigestOps),
		fmt.Sprintf("distinct=%d", digestDistinct),
		fmt.Sprintf("success=%d", success),
		fmt.Sprintf("success_rate=%.4f", float64(success)/serveDigestOps))
}

func sameReply(a, b designReply) bool {
	if a.Success != b.Success || a.Arch != b.Arch || a.FailReason != b.FailReason {
		return false
	}
	if (a.Metrics == nil) != (b.Metrics == nil) {
		return false
	}
	return a.Metrics == nil || *a.Metrics == *b.Metrics
}

func (w *serveWorkload) scrape() ([]promSample, error) {
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(b))
}

// queueWaits collects Started − Created of every job the manager ran,
// by polling Server.Jobs().List() during the phase.
type queueWaits struct {
	seen  map[string]bool
	waits []time.Duration
}

func newQueueWaits() *queueWaits { return &queueWaits{seen: map[string]bool{}} }

func (q *queueWaits) poll(srv *server.Server, stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		q.collect(srv)
		select {
		case <-stop:
			q.collect(srv)
			return
		case <-tick.C:
		}
	}
}

func (q *queueWaits) collect(srv *server.Server) {
	for _, s := range srv.Jobs().List() {
		if !s.Status.Terminal() || q.seen[s.ID] {
			continue
		}
		q.seen[s.ID] = true
		if !s.Started.IsZero() {
			q.waits = append(q.waits, s.Started.Sub(s.Created))
		}
	}
}

// layers derives the serve per-layer metrics from /metrics deltas, the
// job snapshots, GET /traces and timed model construction.
func (w *serveWorkload) layers(res *phaseResult, before []promSample, waits *queueWaits, phaseStart time.Time, rec *recorder) error {
	after, err := w.scrape()
	if err != nil {
		return err
	}
	delta := func(name string, labels map[string]string) float64 {
		a, _ := promValue(after, name, labels)
		b, _ := promValue(before, name, labels)
		return a - b
	}
	route := map[string]string{"route": "POST /design"}
	L := map[string]float64{}
	handlerMs := 1000 * delta("artisan_http_request_duration_seconds_sum", route) /
		delta("artisan_http_request_duration_seconds_count", route)
	L["server.handler_ms"] = handlerMs
	L["server.roundtrip_overhead_ms"] = ms(meanDuration(res.lat)) - handlerMs
	L["server.design_run_ms"] = 1000 * delta("artisan_design_duration_seconds_sum", nil) /
		delta("artisan_design_duration_seconds_count", nil)
	hits, misses := delta("artisan_jobs_cache_hits_total", nil), delta("artisan_jobs_cache_misses_total", nil)
	L["jobs.cache_hit_share"] = hits / math.Max(hits+misses, 1)
	L["jobs.coalesce_hits"] = delta("artisan_jobs_coalesce_hits_total", nil)
	qw := summarize(waits.waits)
	L["jobs.queue_wait_ms"] = ms(qw.Mean)
	L["jobs.queue_wait_tail_ms"] = ms(qw.Tail)
	res.notes = append(res.notes, "jobs queue wait: "+qw.Percents)

	// Span time per design run, from the server's own trace ring.
	resp, err := w.client.Get(fmt.Sprintf("%s/traces?n=%d", w.ts.URL, serveTraceCap))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var tr struct {
		Traces []telemetry.SpanJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("GET /traces: %w", err)
	}
	sums := map[string]time.Duration{}
	runs := 0
	for _, t := range tr.Traces {
		if t.Name != "server.design" || t.Start.Before(phaseStart) {
			continue
		}
		runs++
		sumSpans(t, sums)
	}
	if runs == 0 {
		return fmt.Errorf("no server.design traces in the traced phase")
	}
	per := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += sums[n]
		}
		return ms(d) / float64(runs)
	}
	L["core.design_ms"] = per("core.design")
	L["agents.session_ms"] = per("agents.session")
	L["llm.propose_ms"] = per("llm.propose_architectures", "llm.propose_knobs", "llm.propose_modification")
	L["tool.simulator_ms"] = per("tool.simulator")
	L["mna.sweep_ms"] = per("mna.sweep")
	L["mna.poles_ms"] = per("mna.poles")
	L["mna.zeros_ms"] = per("mna.zeros")
	L["gmid.map_ms"] = per("gmid.map")
	res.notes = append(res.notes, fmt.Sprintf("server traces in traced half: %d design runs", runs))

	// The server builds two domain models per uncached request (the
	// designer and the fallback); time the constructor on its own.
	ctx := context.Background()
	const builds = 200
	for i := 0; i < builds; i++ {
		rec.timed(ctx, "llm.NewDomainModel", func(context.Context) {
			_ = llm.NewDomainModel(int64(i), serveTemperature)
		})
	}
	L["llm.model_build_ms"] = ms(statsByName(rec.finished())["llm.NewDomainModel"].mean())
	res.layers = L
	return nil
}

func sumSpans(s telemetry.SpanJSON, into map[string]time.Duration) {
	into[s.Name] += time.Duration(s.DurationNS)
	for _, c := range s.Children {
		sumSpans(c, into)
	}
}
