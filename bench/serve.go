package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/imageio"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/serve/cache"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// Serving workload shape. One timed operation is a request: a 64 x 64
// PNG posted to /v1/upscale by one of clients() closed-loop clients, each
// sending its next request when the previous reply has been fully read.
const (
	serveModel    = "edsr-tiny"
	serveVariant  = serve.VariantFused
	serveEdge     = 64
	serveCacheMiB = 64
	// Request counts are the requested seconds times a reference rate, so
	// counts (and with them cache evictions) depend on flags, never on
	// speed. Each is about three quarters of the workload's closed-loop
	// rate at the seed commit on one CPU of the reference box (33 and 175
	// req/s): 400 distinct images and 2400 Zipf draws at 16 s take 12 and
	// 14 s, and the seconds left pay for three set-ups and for checking
	// every serve_unique reply inside the driver's per-run budget.
	uniqueRefRate = 25
	fleetRefRate  = 150
	// Warm-up request counts are fixed: they are part of setup_s.
	uniqueWarmup = 32
	fleetScenes  = 64
	fleetZipfS   = 1.1
	fleetWarmup  = 64 // Zipf draws after the catalogue pass
	// Open-loop rates: about half the seed commit's closed-loop capacity.
	uniqueOpenRate = 16
	fleetOpenRate  = 90
	// rateSegments: req_per_s and latency_p50_ms are taken per slice over
	// this many equal-count slices of the timed phase (then fastRate and
	// fastTime over the slices), so one stall moves one slice.
	rateSegments = 20
	// serveCoverageFloor fails a traced run (a quick one too) whose replay
	// rows explain less than this share of the handler time. Under go test
	// the floor is serveCoverageFloorTest: a dozen requests timed beside
	// other packages' test binaries wander by +-20 %, no timing assertion
	// belongs in tier-1, and a ledger with a row missing reads below 0.2.
	serveCoverageFloor     = 0.90
	serveCoverageFloorTest = 0.50
)

// replica is one in-process sr-serve: engine, server, loopback listener.
type replica struct {
	engine *serve.Engine
	met    *serve.Metrics
	ts     *httptest.Server
}

// servingFactories returns the fused edsr-tiny candidate admitted through
// the golden-set PSNR gate, as sr-serve -variant fused does at start-up.
func servingFactories() (serve.Factory, float64, error) {
	cand, ref, err := serve.BuiltinVariantFactory(serveModel, serveVariant)
	if err != nil {
		return nil, 0, err
	}
	g := serve.RunGate(serveModel, serveVariant, cand, ref)
	if !g.Pass {
		return nil, 0, fmt.Errorf("variant %s failed the PSNR gate: %s", serveVariant, g.Transcript())
	}
	return cand, g.DeltaDB, nil
}

// newReplica builds a replica with the default batcher and tile
// configuration and the result cache on. wrap, when non-nil, decorates
// the replica's HTTP handler (the traced pass's timing middleware).
func newReplica(f serve.Factory, delta float64, wrap func(http.Handler) http.Handler) (*replica, error) {
	reg := trace.NewMetrics()
	met := serve.NewMetrics(reg)
	engine := serve.NewEngine(serve.EngineConfig{Cache: cache.Config{MaxBytes: serveCacheMiB << 20}}, met, nil)
	if err := engine.RegisterInfo(serveModel, f, serveVariant, &delta); err != nil {
		engine.Shutdown()
		return nil, err
	}
	var h http.Handler = serve.NewServer(engine, reg, met, 0)
	if wrap != nil {
		h = wrap(h)
	}
	return &replica{engine: engine, met: met, ts: httptest.NewServer(h)}, nil
}

func (rp *replica) close() {
	rp.ts.Close()
	rp.engine.Shutdown()
}

// fleet is what a serving workload talks to: replicas, optionally behind
// a router, and the URL clients post to.
type fleet struct {
	replicas []*replica
	rt       *router.Router
	rtTS     *httptest.Server
	url      string
	client   *http.Client
}

// newFleet builds one replica (serve_unique) or two behind a hash-placed
// router (fleet_zipf). wrapReplica and wrapRouter decorate the handlers
// in the traced pass.
func newFleet(routed bool, f serve.Factory, delta float64, wrapReplica, wrapRouter func(http.Handler) http.Handler) (*fleet, error) {
	fl := &fleet{}
	n := 1
	if routed {
		n = 2
	}
	for i := 0; i < n; i++ {
		rp, err := newReplica(f, delta, wrapReplica)
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.replicas = append(fl.replicas, rp)
	}
	base := fl.replicas[0].ts.URL
	if routed {
		var urls []string
		for _, rp := range fl.replicas {
			urls = append(urls, rp.ts.URL)
		}
		rt, err := router.New(router.Config{Backends: urls, Placement: "hash"}, trace.NewMetrics(), nil)
		if err != nil {
			fl.close()
			return nil, err
		}
		fl.rt = rt
		var h http.Handler = rt
		if wrapRouter != nil {
			h = wrapRouter(h)
		}
		fl.rtTS = httptest.NewServer(h)
		base = fl.rtTS.URL
	}
	fl.url = base + "/v1/upscale"
	c := clients()
	fl.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: c, MaxConnsPerHost: c}}
	return fl, nil
}

func (fl *fleet) close() {
	if fl.client != nil {
		fl.client.CloseIdleConnections()
	}
	if fl.rtTS != nil {
		fl.rtTS.Close()
	}
	if fl.rt != nil {
		fl.rt.Close()
	}
	for _, rp := range fl.replicas {
		rp.close()
	}
}

// post sends one PNG and returns the fully read reply. header, when
// non-empty, is sent as traceparent (the router forwards nothing else).
func (fl *fleet) post(body []byte, traceparent string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, fl.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "image/png")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := fl.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// scenePNG renders synthetic scene i as the PNG a client would upload.
func scenePNG(ds *data.Dataset, i int) ([]byte, error) {
	var buf bytes.Buffer
	if err := imageio.WritePNG(&buf, ds.HR(i)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// goldenPNG is the reference reply for one upload: decode, direct
// compiled forward of the whole image, encode.
func goldenPNG(m serve.Model, png []byte) ([]byte, error) {
	x, err := imageio.ReadPNG(bytes.NewReader(png))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := imageio.WritePNG(&buf, m.Forward(x)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

var pngMagic = []byte("\x89PNG\r\n\x1a\n")

// serveInstance is a set-up serving workload. pngs holds every upload in
// the order it will be used: warm-up first, then the passes; stream maps
// request number to the index of its upload (identity on serve_unique, the
// Zipf draw on fleet_zipf).
type serveInstance struct {
	routed  bool
	quick   bool
	seed    uint64
	factory serve.Factory
	delta   float64
	fl      *fleet
	pngs    [][]byte
	golden  [][]byte // fleet_zipf: per scene
	stream  []int
	warm    int // stream positions 0..warm are the warm-up
	timedN  int
	open    int     // open-loop rate, req/s
	floor   float64 // what serve.coverage must reach

	// replies holds, by stream position, every serve_unique reply (and
	// replay output) until verifyReplies compares each with the direct
	// compiled forward once the clock has stopped: a golden for each
	// distinct image costs as much as serving it.
	mu      sync.Mutex
	replies map[int][]byte
}

func setupServe(cfg runConfig, routed bool) (instance, error) {
	f, delta, err := servingFactories()
	if err != nil {
		return nil, err
	}
	s := &serveInstance{routed: routed, quick: cfg.Quick, seed: cfg.Seed, factory: f, delta: delta, floor: cfg.CoverageFloor, replies: map[int][]byte{}}
	rate := uniqueRefRate
	s.warm, s.open = uniqueWarmup, uniqueOpenRate
	if routed {
		rate = fleetRefRate
		s.warm, s.open = fleetWarmup, fleetOpenRate
	}
	s.timedN = int(math.Round(cfg.Seconds * float64(rate)))
	scenes := fleetScenes
	if cfg.Quick {
		// Room for the traced pass's three attempts: (2 + 3*2) passes of
		// timedN/8 requests.
		s.timedN, s.warm, scenes = 48*clients(), 2*clients(), 8
	}
	// A traced run spends the same stream on three shorter passes (plain,
	// open loop, traced with replay), so one length serves both kinds of
	// run.
	total := s.warm + s.timedN

	if routed {
		ds := data.NewDataset(data.SyntheticConfig{Images: scenes, Height: serveEdge, Width: serveEdge, Channels: 3, Seed: cfg.Seed})
		direct := f()
		for i := 0; i < scenes; i++ {
			png, err := scenePNG(ds, i)
			if err != nil {
				return nil, err
			}
			gold, err := goldenPNG(direct, png)
			if err != nil {
				return nil, err
			}
			s.pngs, s.golden = append(s.pngs, png), append(s.golden, gold)
		}
		// One pass over the catalogue fills the caches, then the Zipf
		// stream: hits only from the first timed request on.
		for i := 0; i < scenes; i++ {
			s.stream = append(s.stream, i)
		}
		s.stream = append(s.stream, data.NewZipfSampler(cfg.Seed, fleetZipfS, scenes).Sequence(total)...)
		s.warm += scenes
	} else {
		ds := data.NewDataset(data.SyntheticConfig{Images: total, Height: serveEdge, Width: serveEdge, Channels: 3, Seed: cfg.Seed})
		for i := 0; i < total; i++ {
			png, err := scenePNG(ds, i)
			if err != nil {
				return nil, err
			}
			s.pngs, s.stream = append(s.pngs, png), append(s.stream, i)
		}
	}

	if !cfg.Trace {
		// (The traced pass builds its own instrumented fleets.)
		if s.fl, err = newFleet(routed, f, delta, nil, nil); err != nil {
			return nil, err
		}
		if err := s.warmUp(s.fl); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// warmUp sends the warm-up part of the stream through a fresh fleet.
func (s *serveInstance) warmUp(fl *fleet) error {
	res := s.closedLoop(fl, 0, s.warm, 1, nil, nil)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", res.failed, s.warm, res.reasons)
	}
	return nil
}

func (s *serveInstance) Close() {
	if s.fl != nil {
		s.fl.close()
	}
}

// fanOut calls f(0..n-1) from clients() goroutines, each taking the next
// index when its previous call has returned — the closed-loop client
// model every serving pass shares.
func fanOut(n int, f func(i int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < n; i = int(cursor.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// loopResult is what a batch of closed-loop requests measured.
type loopResult struct {
	n         int
	latencies []float64 // seconds, per correct reply
	done      []float64 // seconds from the start of the loop to each correct reply
	wall      float64
	failed    int
	reasons   []string
}

// closedLoop sends n requests, stream positions first, first+stride, ...,
// from clients() goroutines, each sending its next request when its
// previous reply has been fully read and after(pos), when non-nil, has
// returned. With a tracer each request is the root span of its own
// operation and carries its identity to the handlers in traceparent.
func (s *serveInstance) closedLoop(fl *fleet, first, n, stride int, tr *tracer, after func(pos int)) loopResult {
	res := loopResult{n: n}
	var mu sync.Mutex
	began := time.Now()
	fanOut(n, func(i int) {
		pos := first + i*stride
		id := tr.begin("client/request", 0, pos)
		t0 := time.Now()
		status, body, err := fl.post(s.pngs[s.stream[pos]], traceparentFor(tr, pos, id))
		lat, done := time.Since(t0).Seconds(), time.Since(began).Seconds()
		tr.end(id)
		reason := s.checkReply(pos, status, body, err)
		mu.Lock()
		if reason == "" {
			res.latencies, res.done = append(res.latencies, lat), append(res.done, done)
		} else if res.failed++; len(res.reasons) < 4 {
			res.reasons = append(res.reasons, reason)
		}
		mu.Unlock()
		if after != nil {
			after(pos)
		}
	})
	res.wall = time.Since(began).Seconds()
	return res
}

// slices cuts the loop's correct replies, in order of completion, into
// rateSegments slices of equal count and returns each slice's replies per
// second and its median latency in seconds.
func (res loopResult) slices() (rates, p50s []float64) {
	order := make([]int, len(res.done))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res.done[order[a]] < res.done[order[b]] })
	prevN, prevT := 0, 0.0
	for k := 1; k <= rateSegments; k++ {
		n := k * len(order) / rateSegments
		if n == prevN {
			continue
		}
		var lats []float64
		for _, i := range order[prevN:n] {
			lats = append(lats, res.latencies[i])
		}
		t := res.done[order[n-1]]
		rates, p50s = append(rates, float64(n-prevN)/(t-prevT)), append(p50s, median(lats))
		prevN, prevT = n, t
	}
	return rates, p50s
}

// checkReply returns why a reply is wrong ("" when it is right). A
// fleet_zipf reply is compared with its scene's golden at once; a
// serve_unique reply is kept for verifyReplies.
func (s *serveInstance) checkReply(pos, status int, body []byte, err error) string {
	scene := s.stream[pos]
	switch {
	case err != nil:
		return fmt.Sprintf("request %d: %v", pos, err)
	case status != http.StatusOK:
		return fmt.Sprintf("request %d: status %d", pos, status)
	case !bytes.HasPrefix(body, pngMagic):
		return fmt.Sprintf("request %d: reply is not a PNG", pos)
	case s.routed && !bytes.Equal(body, s.golden[scene]):
		return fmt.Sprintf("request %d: reply differs from scene %d's golden", pos, scene)
	}
	if !s.routed {
		s.mu.Lock()
		s.replies[pos] = body
		s.mu.Unlock()
	}
	return ""
}

// account folds a loop's outcome into the report: one attempted operation
// per request, one failed operation per wrong reply.
func (s *serveInstance) account(r *report, res loopResult) {
	r.ops(res.n)
	r.failN(res.failed, res.reasons, "request failed")
}

// verifyReplies compares every kept serve_unique reply byte for byte
// with the golden of its upload: decode, direct compiled forward of the
// whole image, encode. A differing reply is a failed operation.
func (s *serveInstance) verifyReplies(r *report) {
	positions := make([]int, 0, len(s.replies))
	for pos := range s.replies {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	direct := make(chan serve.Model, clients()) // one model per checking goroutine
	for c := 0; c < clients(); c++ {
		direct <- s.factory()
	}
	var mu sync.Mutex
	fanOut(len(positions), func(i int) {
		pos := positions[i]
		m := <-direct
		gold, err := goldenPNG(m, s.pngs[s.stream[pos]])
		direct <- m
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			r.fail("golden for request %d: %v", pos, err)
		} else if !bytes.Equal(s.replies[pos], gold) {
			r.fail("request %d: reply differs from the direct compiled forward", pos)
		}
	})
	r.detailf("%-28s %d replies compared with the direct compiled forward", "goldens", len(positions))
	s.replies = map[int][]byte{}
}

// counters is a snapshot of the fleet's public serve.Metrics,
// cache.Metrics and Router.Metrics() fields; passes report differences.
type counters struct {
	hits, misses, evictions         int64
	submits, batches, full, timeout int64
	tiles, routed, retries, hedges  int64
	cacheBytes                      float64
	perReplica                      []int64
}

func (fl *fleet) counters() counters {
	var c counters
	for _, rp := range fl.replicas {
		c.hits += rp.met.Cache.Hits.Value()
		c.misses += rp.met.Cache.Misses.Value()
		c.evictions += rp.met.Cache.Evictions.Value()
		c.cacheBytes += rp.met.Cache.Bytes.Value()
		c.submits += rp.met.Submits.Value()
		c.batches += rp.met.Batches.Value()
		c.full += rp.met.BatchCloseFull.Value()
		c.timeout += rp.met.BatchCloseTimeout.Value()
		c.tiles += rp.met.Tiles.Value()
		c.perReplica = append(c.perReplica, rp.met.Requests.Value())
	}
	if fl.rt != nil {
		m := fl.rt.Metrics()
		c.routed, c.retries, c.hedges = m.Requests.Value(), m.Retries.Value(), m.HedgesLaunched.Value()
	}
	return c
}

// hitRatio is the result-cache hit ratio between two snapshots.
func hitRatio(before, after counters) float64 {
	hits, misses := after.hits-before.hits, after.misses-before.misses
	return float64(hits) / float64(max(1, hits+misses))
}

// checkCachePremise asserts what each workload's why-sentence rests on:
// fleet_zipf hits only (after the catalogue pass nothing may miss),
// serve_unique misses only.
func (s *serveInstance) checkCachePremise(r *report, ratio float64) {
	if s.routed {
		r.check(ratio >= 0.99, "fleet_zipf: cache hit ratio %.4f < 0.99 in a hit-only pass", ratio)
	} else {
		r.check(ratio <= 0.01, "serve_unique: cache hit ratio %.4f > 0.01 on distinct images", ratio)
	}
}

func (s *serveInstance) Timed(r *report) (float64, float64) {
	before := s.fl.counters()
	res := s.closedLoop(s.fl, s.warm, s.timedN, 1, nil, nil)
	after := s.fl.counters()
	s.account(r, res)
	if len(res.latencies) == 0 {
		return 0, 0
	}
	lat := summarize(res.latencies)
	rates, p50s := res.slices()
	rate, p50 := fastRate(rates), fastTime(p50s)
	r.set("req_per_s", rate)
	r.set("latency_p50_ms", p50*1e3)
	r.timing("rate per 1/20 of the phase", "1/s", summarize(rates))
	r.timing("p50 per 1/20 of the phase", "s", summarize(p50s))
	r.timing("client latency, whole phase", "s", lat)
	r.detailf("%-28s p90 %.3f ms, p99 %.3f ms (ungated)", "tail latency", lat.P90*1e3, lat.P99*1e3)
	r.detailf("%-28s %d requests in %.3f s (%.2f 1/s) by %d closed-loop clients", "timed phase", len(res.latencies), res.wall, float64(len(res.latencies))/res.wall, clients())
	ratio := hitRatio(before, after)
	r.detailf("%-28s hit ratio %.4f, %d evictions", "result cache", ratio, after.evictions-before.evictions)
	s.checkCachePremise(r, ratio)
	s.verifyReplies(r)
	return rate, p50 * 1e3
}

// traceparentFor encodes a request's operation index and client span id
// in a W3C traceparent — the one header the router forwards to replicas —
// so the handlers' timing middleware can hang their spans in its tree.
// Both ride in the high half of the trace id; the low half is a hash, as
// random as a real id's, because the servers' tail samplers key on it
// (a small low half would have every request's trace retained).
func traceparentFor(tr *tracer, op, spanID int) string {
	if tr == nil {
		return ""
	}
	hi := uint64(op+1)<<32 | uint64(spanID)
	return fmt.Sprintf("00-%016x%016x-%016x-01", hi, mix64(hi), hi)
}

// parseTraceparent recovers (op, client span id) from traceparentFor. It
// refuses ids the benchmark did not make (the router mints a real one for
// every request that arrives without).
func parseTraceparent(h string) (op, spanID int, ok bool) {
	var hi, lo, parent uint64
	if _, err := fmt.Sscanf(h, "00-%16x%16x-%16x-01", &hi, &lo, &parent); err != nil || hi>>32 == 0 || lo != mix64(hi) {
		return 0, 0, false
	}
	return int(hi>>32) - 1, int(hi & (1<<32 - 1)), true
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// spanLinks lets the replica middleware find the router span of the
// request it serves (the router mints its own span ids on the way).
type spanLinks struct{ routerSpan sync.Map }

// middleware wraps a handler in a span named name. Replica spans hang
// under the router's span for the same operation when there is one,
// otherwise under the client's.
func (l *spanLinks) middleware(tr *tracer, name string, isRouter bool) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			op, parent, ok := parseTraceparent(req.Header.Get("traceparent"))
			if !ok {
				next.ServeHTTP(w, req) // health probes, untraced traffic
				return
			}
			if !isRouter {
				if v, found := l.routerSpan.Load(op); found {
					parent = v.(int)
				}
			}
			id := tr.begin(name, parent, op)
			if isRouter {
				l.routerSpan.Store(op, id)
			}
			next.ServeHTTP(w, req)
			tr.end(id)
		})
	}
}

// timedModel records a span around every forward the batcher runs. A
// batch can carry tiles of several requests, so a forward is its own
// operation (numbered from forwardOpBase) rather than a child of one.
type timedModel struct {
	serve.Model
	tr *tracer
	op *atomic.Int64
}

// Replay and forward operations are numbered apart from requests.
const (
	replayOpBase  = 1 << 20
	forwardOpBase = 1 << 24
)

func (m *timedModel) Forward(x *tensor.Tensor) *tensor.Tensor {
	id := m.tr.begin("models/compiled_forward", 0, forwardOpBase+int(m.op.Add(1)))
	y := m.Model.Forward(x)
	m.tr.end(id)
	return y
}

// Traced runs three passes of n requests each over consecutive parts of
// the stream: plain and open loop on an uninstrumented fleet, then the
// traced pass on a fleet whose handlers carry the timing middleware and
// whose models time every forward. In the traced pass each client follows
// every request with a replay of the next upload through direct calls on
// the same replica, so the ledger's rows and the handler they explain are
// measured side by side.
func (s *serveInstance) Traced(r *report, tr *tracer) {
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	n := max(clients(), s.timedN/5)
	if s.quick {
		n = s.timedN / 8
	}

	plainFleet, err := newFleet(s.routed, s.factory, s.delta, nil, nil)
	if err != nil {
		r.abort(err)
		return
	}
	if err := s.warmUp(plainFleet); err != nil {
		plainFleet.close()
		r.abort(err)
		return
	}
	var memA, memB runtime.MemStats
	runtime.ReadMemStats(&memA)
	plain := s.closedLoop(plainFleet, s.warm, n, 1, nil, nil)
	runtime.ReadMemStats(&memB)
	s.account(r, plain)
	r.set("proc.allocs_per_request", float64(memB.Mallocs-memA.Mallocs)/float64(n))
	s.openLoop(r, plainFleet, s.warm+n, n)
	plainFleet.close()

	links := &spanLinks{}
	var wrapRouter func(http.Handler) http.Handler
	if s.routed {
		wrapRouter = links.middleware(tr, "router/handler", true)
	}
	var fwdOp atomic.Int64
	timed := func() serve.Model { return &timedModel{Model: s.factory(), tr: tr, op: &fwdOp} }
	tracedFleet, err := newFleet(s.routed, timed, s.delta, links.middleware(tr, "serve/handler", false), wrapRouter)
	if err != nil {
		r.abort(err)
		return
	}
	defer tracedFleet.close()
	if err := s.warmUp(tracedFleet); err != nil {
		r.abort(err)
		return
	}
	if s.routed {
		// The router gave each replica its share of the catalogue; a replay
		// may land on either, so each is shown every scene.
		for _, rp := range tracedFleet.replicas {
			for i := range s.golden {
				if err := s.replayOne(rp, i, nil); err != nil {
					r.abort(err)
					return
				}
			}
		}
	}
	warmForwards := len(tr.durations("models/compiled_forward"))
	before := tracedFleet.counters()
	// The ledger is wall-clock spans of a few requests, and whatever else
	// the machine runs lands in them; a quick run — a dozen requests, often
	// beside other packages' tests — measures again, up to three times,
	// before it reports a ledger that does not close.
	attempts := 1
	if s.quick {
		attempts = 3
	}
	var traced loopResult
	var led serveLedger
	pairs := 0
	for a := 0; a < attempts; a++ {
		first := s.warm + 2*n + a*2*n
		var replayFailed atomic.Int64
		traced = s.closedLoop(tracedFleet, first, n, 2, tr, func(pos int) {
			rp := tracedFleet.replicas[(pos/2)%len(tracedFleet.replicas)]
			if err := s.replayOne(rp, pos+1, tr); err != nil {
				replayFailed.Add(1)
			}
		})
		pairs += n
		s.account(r, traced)
		r.ops(n)
		r.failN(int(replayFailed.Load()), nil, "replay request failed")
		if len(plain.latencies) == 0 || traced.failed > 0 || replayFailed.Load() > 0 {
			return
		}
		if led = s.ledger(tr, first, n); led.coverage() >= s.floor {
			break
		}
	}
	after := tracedFleet.counters()

	lat := summarize(traced.latencies)
	r.set("serve.handler_ms", median(led.handler)*1e3)
	r.set("serve.http_overhead_ms", median(led.hop)*1e3)
	r.set("client.latency_p90_ms", lat.P90*1e3)
	r.set("client.latency_p99_ms", lat.P99*1e3)
	r.set("trace.overhead_pct", (lat.Med/median(plain.latencies)-1)*100)
	r.timing("client latency (untraced)", "s", summarize(plain.latencies))
	r.timing("client latency (traced)", "s", lat)

	ratio := hitRatio(before, after)
	s.checkCachePremise(r, ratio)
	ops := float64(2 * pairs) // requests and replays both reach the engines
	r.set("cache.hit_ratio", ratio)
	r.set("cache.evictions", float64(after.evictions-before.evictions))
	r.set("cache.bytes_mb", after.cacheBytes/(1<<20))
	r.set("serve.mean_batch", float64(after.submits-before.submits)/float64(max(1, after.batches-before.batches)))
	r.set("serve.batch_close_full", float64(after.full-before.full))
	r.set("serve.batch_close_timeout", float64(after.timeout-before.timeout))
	r.set("serve.tiles_per_request", float64(after.tiles-before.tiles)/ops)
	if s.routed {
		r.set("router.overhead_ms", median(led.overhead)*1e3)
		routed := after.routed - before.routed
		r.set("router.attempts_per_request", float64(routed+after.retries-before.retries+after.hedges-before.hedges)/float64(max(1, routed)))
		var most int64
		for i := range after.perReplica {
			most = max(most, after.perReplica[i]-before.perReplica[i])
		}
		r.set("router.backend_share_max", float64(most)/float64(pairs))
	}

	var fwd float64
	for _, d := range tr.durations("models/compiled_forward")[warmForwards:] {
		fwd += d
	}
	r.set("imageio.decode_ms", median(led.decode)*1e3)
	r.set("serve.engine_ms", median(led.engine)*1e3)
	r.set("imageio.encode_ms", median(led.encode)*1e3)
	r.set("models.compiled_forward_ms", fwd/ops*1e3)
	cov := led.coverage()
	r.set("serve.coverage", cov)
	r.check(cov >= s.floor, "serve.coverage %.3f < %.2f: decode + engine + encode do not account for the handler", cov, s.floor)
	r.detailf("%-28s decode %.3f + engine %.3f + encode %.3f ms beside a %.3f ms handler (medians)", "ledger",
		median(led.decode)*1e3, median(led.engine)*1e3, median(led.encode)*1e3, median(led.handler)*1e3)
	r.detailf("%-28s compiled forward is %.1f %% of client latency", "share", 100*r.Values["models.compiled_forward_ms"]/(lat.Med*1e3))

	s.verifyReplies(r)
	benchCache(r, microBudget(s.quick))
	if !s.routed {
		benchPackedGemm(r, microBudget(s.quick))
	}
	recordProc(r, mem0)
}

// serveLedger holds one traced pass's rows, a value per request (handler,
// overhead, hop) or per replay (decode, engine, encode), in seconds.
// overhead is client latency less the replica's handler span; hop is the
// caller's span (the router's, or the client's without one) less it.
type serveLedger struct {
	handler, overhead, hop []float64
	decode, engine, encode []float64
}

// ledger reads the rows of the traced pass that sent n requests from
// stream position first, each followed by the replay of the next position.
func (s *serveInstance) ledger(tr *tracer, first, n int) serveLedger {
	client, handler, routerSpan := tr.byOp("client/request"), tr.byOp("serve/handler"), tr.byOp("router/handler")
	decode, engine, encode := tr.byOp("imageio/decode"), tr.byOp("serve/engine"), tr.byOp("imageio/encode")
	var l serveLedger
	for i := 0; i < n; i++ {
		pos := first + 2*i
		caller := client[pos]
		if s.routed {
			caller = routerSpan[pos]
		}
		l.handler = append(l.handler, handler[pos])
		l.overhead = append(l.overhead, client[pos]-handler[pos])
		l.hop = append(l.hop, caller-handler[pos])
		replay := replayOpBase + pos + 1
		l.decode, l.engine, l.encode = append(l.decode, decode[replay]), append(l.engine, engine[replay]), append(l.encode, encode[replay])
	}
	return l
}

// coverage is the share of the handler that decode + engine + encode
// account for. Requests and replays alternate on the same replica in the
// same pass, and interference only ever adds time, so each side is taken
// at its lower quartile, its least disturbed quarter.
func (l serveLedger) coverage() float64 {
	q1 := func(x []float64) float64 { return summarize(x).Q1 }
	return (q1(l.decode) + q1(l.engine) + q1(l.encode)) / q1(l.handler)
}

// replayOne runs the upload at stream position pos as imageio.ReadPNG ->
// Engine.UpscaleCtx -> imageio.WritePNG on rp, one span a stage under a
// root of its own, and hands the encoded result to checkReply like any
// reply.
func (s *serveInstance) replayOne(rp *replica, pos int, t *tracer) error {
	op := replayOpBase + pos
	root := t.begin("serve/replay", 0, op)
	defer t.end(root)
	id := t.begin("imageio/decode", root, op)
	x, err := imageio.ReadPNG(bytes.NewReader(s.pngs[s.stream[pos]]))
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("serve/engine", root, op)
	y, err := rp.engine.UpscaleCtx(context.Background(), serveModel, x)
	t.end(id)
	if err != nil {
		return err
	}
	var out bytes.Buffer
	id = t.begin("imageio/encode", root, op)
	err = imageio.WritePNG(&out, y)
	t.end(id)
	if err != nil {
		return err
	}
	if reason := s.checkReply(pos, http.StatusOK, out.Bytes(), nil); reason != "" {
		return fmt.Errorf("%s", reason)
	}
	return nil
}

// openLoop posts requests first..first+n on a seeded Poisson schedule at
// the workload's constant rate, whatever the replies do; latency is
// counted from the instant a request was due, so a stall charges the
// requests queued behind it.
func (s *serveInstance) openLoop(r *report, fl *fleet, first, n int) {
	rng := tensor.NewRNG(s.seed + 77)
	due := make([]time.Duration, n)
	var at float64
	for i := range due {
		at += -math.Log(1-rng.Float64()) / float64(s.open)
		due[i] = time.Duration(at * float64(time.Second))
	}
	lat, late := make([]float64, n), make([]float64, n)
	var failed atomic.Int64
	began := time.Now()
	fanOut(n, func(i int) {
		if wait := due[i] - time.Since(began); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(began)
		pos := first + i
		status, body, err := fl.post(s.pngs[s.stream[pos]], "")
		if s.checkReply(pos, status, body, err) != "" {
			failed.Add(1)
		}
		lat[i] = (time.Since(began) - due[i]).Seconds()
		late[i] = (sent - due[i]).Seconds()
	})
	r.ops(n)
	r.failN(int(failed.Load()), nil, "open-loop request failed")
	sum := summarize(lat)
	r.set("client.open_p50_ms", sum.Med*1e3)
	r.set("client.open_p90_ms", sum.P90*1e3)
	r.set("client.open_late_ms", median(late)*1e3)
	r.detailf("%-28s %d requests at %d req/s (Poisson), latency from due time", "open loop", n, s.open)
}
