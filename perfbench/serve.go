package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
	"photonoc/internal/onocd"
	"photonoc/internal/resilience"
)

// Route indices into routeNames.
const (
	routeSweep = iota
	routeEval
	routeBatch
)

// serveReq is one generated daemon request.
type serveReq struct {
	route int
	sweep onocd.SweepRequest
	eval  onocd.NoCRequest
	batch []onocd.NoCBatchItem
	// key identifies the input: its slot in the route's working-set pool.
	key int
}

// The serving workload's shape.
var (
	topoKinds = []string{"bus", "ring", "mesh", "crossbar"}
	topoTiles = []int{8, 12, 16}
	warmBERs  = []float64{1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11}
	batchSize = 8
)

// serveGen makes the serving workload's requests from the workload seed:
// request i depends only on (seed, i).
type serveGen struct {
	seed uint64
	// The warm working set, one pool per route.
	sweeps  []onocd.SweepRequest
	evals   []onocd.NoCRequest
	batches [][]onocd.NoCBatchItem
}

// newServeGen builds the generator. The warm working set is the same for
// every seed — every 1–3 point subset of the BER grid for sweeps, every
// (topology, BER) pair for noc/eval, and those pairs in fixed batches of 8
// — so seeds differ only in the order requests draw from it, and the load
// per request does not depend on the seed.
func newServeGen(seed uint64) *serveGen {
	g := &serveGen{seed: seed}
	n := len(warmBERs)
	for i := 0; i < n; i++ {
		g.sweeps = append(g.sweeps, onocd.SweepRequest{TargetBERs: []float64{warmBERs[i]}})
		for j := i + 1; j < n; j++ {
			g.sweeps = append(g.sweeps, onocd.SweepRequest{TargetBERs: []float64{warmBERs[i], warmBERs[j]}})
			for k := j + 1; k < n; k++ {
				g.sweeps = append(g.sweeps, onocd.SweepRequest{TargetBERs: []float64{warmBERs[i], warmBERs[j], warmBERs[k]}})
			}
		}
	}
	for _, kind := range topoKinds {
		for _, tiles := range topoTiles {
			for _, ber := range warmBERs {
				g.evals = append(g.evals, onocd.NoCRequest{Topology: kind, Tiles: tiles, TargetBER: ber, Objective: "min-energy"})
			}
		}
	}
	// A fixed shuffle (stride coprime to the pool size) spreads every
	// batch over topologies and BERs.
	var items []onocd.NoCBatchItem
	for i := range g.evals {
		items = append(items, onocd.NoCBatchItem{NoCRequest: g.evals[(i*29)%len(g.evals)]})
	}
	for len(items) >= batchSize {
		g.batches = append(g.batches, items[:batchSize])
		items = items[batchSize:]
	}
	return g
}

// Random streams of the generator, so no two choices share draws.
const (
	streamRoute = iota + 1
	streamSweep
	streamEval
	streamBatch
)

// cyc returns the k-th element of a sequence that walks through 0..n-1 in a
// fresh seeded permutation every n steps. Any window of the sequence covers
// the choices almost evenly, so a run's cost does not hinge on how many
// heavy inputs a short window happened to draw.
func cyc(seed, stream uint64, k, n int) int {
	rng := rand.New(rand.NewPCG(seed, stream<<40|uint64(k/n)))
	return rng.Perm(n)[k%n]
}

// routeSlots is one block of the route mix: 60% sweep, 30% noc/eval and
// 10% noc/batch, in a seeded order per block.
var routeSlots = [10]int{routeSweep, routeSweep, routeSweep, routeSweep, routeSweep, routeSweep,
	routeEval, routeEval, routeEval, routeBatch}

// request returns request i. Its route comes from the block of ten it
// falls in, and its input from that route's own walk: the k-th request of
// a route takes element k of the route's cycle over the working set.
func (g *serveGen) request(i int) serveReq {
	block, pos := i/len(routeSlots), i%len(routeSlots)
	perm := rand.New(rand.NewPCG(g.seed, streamRoute<<40|uint64(block))).Perm(len(routeSlots))
	req := serveReq{route: routeSlots[perm[pos]]}
	// k counts the route's requests before this one.
	perBlock := 0
	for _, r := range routeSlots {
		if r == req.route {
			perBlock++
		}
	}
	k := block * perBlock
	for _, p := range perm[:pos] {
		if routeSlots[p] == req.route {
			k++
		}
	}
	switch req.route {
	case routeSweep:
		req.key = cyc(g.seed, streamSweep, k, len(g.sweeps))
		req.sweep = g.sweeps[req.key]
	case routeEval:
		req.key = cyc(g.seed, streamEval, k, len(g.evals))
		req.eval = g.evals[req.key]
	default:
		req.key = cyc(g.seed, streamBatch, k, len(g.batches))
		req.batch = g.batches[req.key]
	}
	return req
}

// pool lists every warm working-set request once.
func (g *serveGen) pool() []serveReq {
	var out []serveReq
	for i, s := range g.sweeps {
		out = append(out, serveReq{route: routeSweep, sweep: s, key: i})
	}
	for i, e := range g.evals {
		out = append(out, serveReq{route: routeEval, eval: e, key: i})
	}
	for i, b := range g.batches {
		out = append(out, serveReq{route: routeBatch, batch: b, key: i})
	}
	return out
}

// body returns the request's exact wire body and path.
func (q serveReq) body() (string, string, []byte) {
	switch q.route {
	case routeSweep:
		b, _ := json.Marshal(q.sweep)
		return "/v1/sweep", "application/json", b
	case routeEval:
		b, _ := json.Marshal(q.eval)
		return "/v1/noc/eval", "application/json", b
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range q.batch {
		_ = enc.Encode(it) // plain structs: cannot fail
	}
	return "/v1/noc/batch", "application/x-ndjson", buf.Bytes()
}

// outcome is what the client observed for one request: the digest of its
// answer, or its error and whether the network itself failed under it.
type outcome struct {
	sum    uint64
	err    error
	netErr bool
}

// answer is one decoded response, kept from the timed call until it is
// digested outside the request's timing.
type answer struct {
	sweep onocd.SweepResponse
	eval  noc.Result
	batch []batchResult
}

type batchResult struct {
	i   int
	res noc.Result
}

// digest hashes an answer field for field, floats by their bits.
func (a *answer) digest(route int) uint64 {
	h := newHasher()
	switch route {
	case routeSweep:
		for i := range a.sweep.Evaluations {
			h.wireEval(&a.sweep.Evaluations[i])
		}
	case routeEval:
		h.nocResult(&a.eval)
	default:
		for i := range a.batch {
			h.i(int64(a.batch[i].i))
			h.nocResult(&a.batch[i].res)
		}
	}
	return uint64(h)
}

// netWatch marks, through a flag in the request's context, a failure of
// the network itself: a round trip that failed, or a body cut off while it
// was read. onocd.Client reports such a failure and an answer body that
// does not decode as one transport error; the verifier counts the first as
// load-induced and the second as a wrong output.
type netWatch struct{ next http.RoundTripper }

type netErrKey struct{}

func (w netWatch) RoundTrip(req *http.Request) (*http.Response, error) {
	flag, _ := req.Context().Value(netErrKey{}).(*atomic.Bool)
	if flag == nil {
		return w.next.RoundTrip(req)
	}
	flag.Store(false) // the flag describes the last attempt
	resp, err := w.next.RoundTrip(req)
	if err != nil {
		flag.Store(true)
		return nil, err
	}
	resp.Body = watchedBody{ReadCloser: resp.Body, flag: flag}
	return resp, nil
}

type watchedBody struct {
	io.ReadCloser
	flag *atomic.Bool
}

func (b watchedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		b.flag.Store(true)
	}
	return n, err
}

// serveRun is one serving workload's state.
type serveRun struct {
	r      *report
	gen    *serveGen
	tr     *tracer
	srv    *onocd.Server
	hs     *http.Server
	base   string
	client *onocd.Client
	mu     sync.Mutex
	seen   map[int]outcome // by request index
	// prepared holds requests preparedFrom, preparedFrom+1, ... made before
	// a timed phase; the phase's workers only read it.
	prepared     []serveReq
	preparedFrom int
}

// prepare makes requests [from, from+n) ready for the next phase.
func (s *serveRun) prepare(from, n int) {
	s.prepared, s.preparedFrom = make([]serveReq, n), from
	for j := range s.prepared {
		s.prepared[j] = s.gen.request(from + j)
	}
}

// request returns request i, prepared if the phase made it ahead.
func (s *serveRun) request(i int) serveReq {
	if j := i - s.preparedFrom; j >= 0 && j < len(s.prepared) {
		return s.prepared[j]
	}
	return s.gen.request(i)
}

// start brings up a daemon in its default Options, mounted exactly as
// onocd.ListenLocal mounts it; a traced run wraps the handler in the span
// middleware.
func (s *serveRun) start() error {
	srv, err := onocd.NewServer(onocd.Options{})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := srv.Handler()
	if s.tr != nil {
		h = s.tr.middleware(h)
	}
	s.srv, s.hs, s.base = srv, &http.Server{Handler: h}, "http://"+l.Addr().String()
	go s.hs.Serve(l)
	workers := runtime.GOMAXPROCS(0)
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}
	if s.tr != nil {
		rt = transport{t: s.tr, next: rt}
	}
	rt = &netWatch{next: rt}
	s.client = onocd.NewClient(s.base)
	s.client.HTTP = &http.Client{Transport: rt}
	return nil
}

// setUp starts the daemon, waits until it is healthy and, for serve_warm,
// solves the working set through it.
func (s *serveRun) setUp(ctx context.Context) error {
	if err := s.start(); err != nil {
		return err
	}
	if err := s.client.Healthz(ctx); err != nil {
		return err
	}
	for _, q := range s.gen.pool() {
		if _, err := s.call(ctx, q); err != nil {
			return fmt.Errorf("solving the working set: %w", err)
		}
	}
	return nil
}

func (s *serveRun) stop() {
	if s.hs != nil {
		s.hs.Close()
		s.client.HTTP.CloseIdleConnections()
	}
}

// call sends one request through onocd.Client and returns its decoded
// answer; the span covers the client call only.
func (s *serveRun) call(ctx context.Context, q serveReq) (*answer, error) {
	ctx, sp := s.tr.begin(ctx, "onocd_client", routeNames[q.route])
	defer sp.end()
	a := &answer{}
	var err error
	switch q.route {
	case routeSweep:
		a.sweep, err = s.client.Sweep(ctx, q.sweep)
	case routeEval:
		a.eval, err = s.client.NetworkEval(ctx, q.eval)
	default:
		err = s.client.NetworkBatch(ctx, q.batch, func(i int, _ float64, res noc.Result) error {
			a.batch = append(a.batch, batchResult{i, res})
			return nil
		})
	}
	return a, err
}

// send is the load generator's request function: it sends request i and
// returns the check that digests and records the answer once the
// request's timing has ended.
func (s *serveRun) send(ctx context.Context, i int) func() bool {
	q := s.request(i)
	netErr := new(atomic.Bool)
	a, err := s.call(context.WithValue(ctx, netErrKey{}, netErr), q)
	return func() bool {
		o := outcome{err: err, netErr: netErr.Load()}
		if err == nil {
			o.sum = a.digest(q.route)
		}
		s.mu.Lock()
		s.seen[i] = o
		s.mu.Unlock()
		return err == nil
	}
}

// reference evaluates a request in-process on an independent engine.
func reference(ctx context.Context, eng *engine.Engine, q serveReq) (uint64, error) {
	h := newHasher()
	switch q.route {
	case routeSweep:
		var codes []ecc.Code
		for _, n := range q.sweep.Schemes {
			c, ok := schemeByName(n)
			if !ok {
				return 0, fmt.Errorf("unknown scheme %q", n)
			}
			codes = append(codes, c)
		}
		evs, err := eng.Sweep(ctx, codes, q.sweep.TargetBERs)
		if err != nil {
			return 0, err
		}
		for i := range evs {
			h.coreEval(&evs[i])
		}
	case routeEval:
		res, err := refNetwork(ctx, eng, q.eval)
		if err != nil {
			return 0, err
		}
		h.nocResult(&res)
	default:
		for i, it := range q.batch {
			res, err := refNetwork(ctx, eng, it.NoCRequest)
			if err != nil {
				return 0, err
			}
			h.i(int64(i))
			h.nocResult(&res)
		}
	}
	return uint64(h), nil
}

func refNetwork(ctx context.Context, eng *engine.Engine, q onocd.NoCRequest) (noc.Result, error) {
	kind, err := noc.ParseKind(q.Topology)
	if err != nil {
		return noc.Result{}, err
	}
	return eng.Network(ctx, noc.Config{Kind: kind, Tiles: q.Tiles},
		noc.EvalOptions{TargetBER: q.TargetBER, Objective: manager.MinEnergy})
}

// verify checks every observed answer against an in-process reference of
// its working-set slot, counting each request once: a digest mismatch, or a
// success where the reference fails, is a wrong output; a failure the
// reference reproduces, or one caused by load (429/503/504, an open
// breaker, a network failure), is failed but not wrong. An answer body that
// does not decode is wrong.
func (s *serveRun) verify(ctx context.Context) error {
	eng, err := engine.New(engine.WithWorkers(1))
	if err != nil {
		return err
	}
	type refResult struct {
		sum uint64
		err error
	}
	refs := map[[2]int]refResult{}
	for _, q := range s.gen.pool() {
		sum, err := reference(ctx, eng, q)
		refs[[2]int{q.route, q.key}] = refResult{sum, err}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	idx := make([]int, 0, len(s.seen))
	for i := range s.seen {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	var known, load int
	for _, i := range idx {
		q := s.gen.request(i)
		o, ref := s.seen[i], refs[[2]int{q.route, q.key}]
		ok := o.err == nil
		wrong := false
		switch {
		case ok && ref.err != nil, ok && o.sum != ref.sum:
			wrong = true
		case !ok && ref.err != nil:
			known++
		case !ok && (o.netErr || apierr.Retryable(o.err) || errors.Is(o.err, resilience.ErrOpen)):
			load++
		case !ok:
			wrong = true
		}
		if wrong {
			fmt.Fprintf(s.r.cfg.out, "WRONG request %d (%s): observed err=%v sum=%x, reference err=%v sum=%x\n",
				i, routeNames[q.route], o.err, o.sum, ref.err, ref.sum)
		}
		s.r.op(ok && !wrong, wrong)
	}
	fmt.Fprintf(s.r.cfg.out, "verify: %d answers checked against in-process references; %d failures reproduced in-process, %d load-induced\n",
		len(idx), known, load)
	return nil
}

// loRate is the light fixed offered rate (requests/s) of the lo.*
// latencies, a fifth or less of what one connection sustains in closed loop
// on the reference machine (150–220/s). The p50
// falls between the sweep and the eval latencies, so it moves with every
// wait a sweep meets behind a batch or a collection; with one CPU kept busy
// by a spinning goroutine, it grew 1.1× at 20/s, 1.4× at 40/s and 1.9× at
// 60/s on that machine.
const loRate = 30

// hiShare is the hi.* phase's rate as a share of the closed loop's
// wall-clock rate.
const hiShare = 0.75

// setupReps is how many daemons a serving run sets up, each solving the
// whole working set, for a median setup_s.
const setupReps = 5

// warmUpTime is the unmeasured load every run applies before measuring:
// after idling, the reference machine runs at half speed for a second or
// two.
const warmUpTime = 2 * time.Second

func runServe(ctx context.Context, r *report) error {
	s := &serveRun{r: r, gen: newServeGen(r.cfg.seed), seen: map[int]outcome{}}
	if r.cfg.trace {
		s.tr = newTracer()
	}
	if err := s.setUp(ctx); err != nil {
		return err
	}
	defer s.stop()
	g := &loadgen{workers: runtime.GOMAXPROCS(0), seed: r.cfg.seed, tr: s.tr, prepare: s.prepare, send: s.send}
	g.warmUp(ctx, warmUpTime)

	// Set-up is timed on daemons started after the warm-up, when the host
	// runs at its steady speed; the warmed daemon serves the measured run.
	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		other := &serveRun{r: r, gen: s.gen}
		t0 := cpuNow()
		err := other.setUp(ctx)
		setups = append(setups, cpuNow()-t0)
		other.stop()
		if err != nil {
			return err
		}
	}
	r.setupTimes(setups)

	if r.cfg.trace {
		if err := s.traced(ctx, g); err != nil {
			return err
		}
	} else {
		s.untraced(ctx, g)
	}
	if err := s.verify(ctx); err != nil {
		return err
	}
	att := r.attempted.Load()
	if r.cfg.trace {
		r.layer("fail_share", float64(r.failed.Load())/float64(att), int(att))
	} else {
		r.info("fail_share", float64(r.failed.Load())/float64(att), "ratio", int(att))
	}
	return nil
}

// serveRounds is how many times an untraced serving run alternates a
// closed-loop phase with a phase at the light fixed rate, so both sample
// the host's speed over the whole run.
const serveRounds = 4

// untraced is the serving workload's measured run: serveRounds rounds of a
// closed-loop phase on one connection followed by an open-loop phase at the
// light fixed rate, then one open-loop phase at hiShare of the closed
// loop's rate. The bounded metrics come from the closed loop's CPU times;
// the open loop's wall-clock latencies, as a caller sees them, are printed
// beside them.
func (s *serveRun) untraced(ctx context.Context, g *loadgen) {
	r := s.r
	heap := startHeapSampler()
	var caps, walls, cpu []float64
	var los []phaseResult
	for round := 0; round < serveRounds; round++ {
		c := g.closedLoop(ctx, r.cfg.budget(0.13))
		cpu = append(cpu, c...)
		caps = append(caps, 1e3/mean(c)) // requests per CPU-second
		walls = append(walls, float64(len(c))/r.cfg.budget(0.13).Seconds())
		lo := g.run(ctx, loRate, r.cfg.budget(0.10))
		los = append(los, lo)
		fmt.Fprintf(r.cfg.out, "round %d: %.1f requests/CPU-s, %.1f requests/s, lo.p50 %.3f ms (n=%d)\n",
			round, caps[round], walls[round], median(lo.lat), len(lo.lat))
	}
	rps := median(walls)
	hi := g.run(ctx, hiShare*rps, r.cfg.budget(0.08))
	heap.finish(r)

	// The light-rate latencies pool the rounds: spread over the whole run,
	// they average the host's speed over it.
	var lat, late []float64
	for _, lo := range los {
		lat = append(lat, lo.lat...)
		late = append(late, lo.late...)
	}
	r.e2e("ops_per_cpu_s", median(caps), len(caps))
	r.info("capacity_rps", rps, "1/s", len(walls))
	r.e2e("p50_ms", median(cpu), len(cpu))
	r.e2e("p95_ms", quantile(cpu, 0.95), len(cpu))
	r.info("lo.p50_ms", median(lat), "ms", len(lat))
	r.info("lo.p95_ms", quantile(lat, 0.95), "ms", len(lat))
	r.info("lo.p99_ms", quantile(lat, 0.99), "ms", len(lat))
	r.info("lo.rate", loRate, "1/s", len(late))
	r.info("hi.p50_ms", median(hi.lat), "ms", len(hi.lat))
	r.info("hi.p99_ms", quantile(hi.lat, 0.99), "ms", len(hi.lat))
	r.info("hi.rate", hi.rate, "1/s", hi.sent)
	r.info("loadgen.late_p99_ms", quantile(append(late, hi.late...), 0.99), "ms", len(late)+len(hi.late))
}

// traced is the serving workload's traced run: an untraced and a traced
// phase at the light rate (their p50 difference is the tracing overhead),
// then the layer ladder over the workload's exact requests.
func (s *serveRun) traced(ctx context.Context, g *loadgen) error {
	r := s.r
	before := readRuntime()
	plain := g.run(ctx, loRate, r.cfg.budget(0.25))
	r.perOp(before, plain.sent)
	r.layer("loadgen.late_p99_ms", quantile(plain.late, 0.99), len(plain.late))

	m0, err := scrapeMetrics(ctx, s.client.HTTP, s.base)
	if err != nil {
		return err
	}
	st0 := s.client.Stats()
	s.tr.on.Store(true)
	traced := g.run(ctx, loRate, r.cfg.budget(0.25))
	s.tr.on.Store(false)
	st1 := s.client.Stats()
	m1, err := scrapeMetrics(ctx, s.client.HTTP, s.base)
	if err != nil {
		return err
	}
	p0, p1 := median(plain.lat), median(traced.lat)
	r.info("lo.p50_ms.untraced", p0, "ms", len(plain.lat))
	r.info("lo.p50_ms.traced", p1, "ms", len(traced.lat))
	r.layer("trace.overhead_pct", 100*(p1-p0)/p0, len(traced.lat))
	if err := s.tr.finish(r, traced.sent); err != nil {
		return err
	}

	d := func(name string) float64 { return m1[name] - m0[name] }
	hits, misses := d("onocd_cache_hits_total"), d("onocd_cache_misses_total")
	if hits+misses > 0 {
		r.layer("engine.hit_ratio", hits/(hits+misses), int(hits+misses))
	}
	// Solve counts are per request.
	n := float64(traced.sent)
	cs := d("onocd_cold_solve_duration_seconds_count")
	r.layer("engine.cold_solves", cs/n, traced.sent)
	if cs > 0 {
		r.layer("engine.cold_solve_us", 1e6*d("onocd_cold_solve_duration_seconds_sum")/cs, int(cs))
	}
	r.layer("engine.shared_solves", d("onocd_cache_shared_solves_total")/n, traced.sent)
	r.layer("onocd.admission_rejects", d("onocd_admission_rejected_total"), traced.sent)
	r.layer("onocd.retries", float64(st1.Retries-st0.Retries), int(st1.Requests-st0.Requests))

	return s.ladder(ctx)
}

// ladderSamples is the number of requests per route each rung times.
const ladderSamples = 60

// ladder times each layer of the serving path on the workload's own
// requests: raw loopback HTTP, the in-process handler, client decoding,
// the in-process engine, and the cold-solve pipeline.
func (s *serveRun) ladder(ctx context.Context) error {
	r := s.r
	// The next request of a route, from indices past every one the load
	// phases used.
	fresh := 1 << 30
	take := func(route int) serveReq {
		for {
			q := s.gen.request(fresh)
			fresh++
			if q.route == route {
				return q
			}
		}
	}
	raw := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer raw.CloseIdleConnections()
	handler := s.srv.Handler()
	for route := range routeNames {
		name := routeNames[route]
		var rtt, rttID, hnd, hndID, dec []float64
		var size, gzSize []float64
		for i := 0; i < ladderSamples; i++ {
			for _, enc := range []string{"gzip", "identity"} {
				q := take(route)
				path, ctype, body := q.body()
				t0 := time.Now()
				n, err := rawPost(ctx, raw, s.base+path, ctype, enc, body)
				if err != nil {
					return fmt.Errorf("raw %s: %w", path, err)
				}
				if enc == "gzip" {
					rtt = append(rtt, us(time.Since(t0)))
					gzSize = append(gzSize, float64(n))
				} else {
					rttID = append(rttID, us(time.Since(t0)))
				}
				q = take(route)
				path, ctype, body = q.body()
				req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
				req.Header.Set("Content-Type", ctype)
				req.Header.Set("Accept-Encoding", enc)
				rec := httptest.NewRecorder()
				t0 = time.Now()
				handler.ServeHTTP(rec, req)
				el := us(time.Since(t0))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler %s: status %d", path, rec.Code)
				}
				if enc == "gzip" {
					hnd = append(hnd, el)
					continue
				}
				hndID = append(hndID, el)
				size = append(size, float64(rec.Body.Len()))
				t0 = time.Now()
				if err := decodeBody(route, rec.Body.Bytes()); err != nil {
					return fmt.Errorf("decode %s: %w", path, err)
				}
				dec = append(dec, us(time.Since(t0)))
			}
		}
		r.layer("onocd.http_rtt_us."+name, median(rtt), len(rtt))
		r.layer("onocd.http_rtt_identity_us."+name, median(rttID), len(rttID))
		r.layer("onocd.handler_us."+name, median(hnd), len(hnd))
		r.layer("onocd.handler_identity_us."+name, median(hndID), len(hndID))
		r.layer("onocd.client_decode_us."+name, median(dec), len(dec))
		r.layer("onocd.resp_bytes."+name, mean(size), len(size))
		r.layer("onocd.resp_gzip_bytes."+name, mean(gzSize), len(gzSize))
	}

	// The in-process engine, its cache in the workload's state: warmed with
	// the working set.
	eng, err := engine.New(engine.WithObserver(s.tr))
	if err != nil {
		return err
	}
	for _, q := range s.gen.pool() {
		if _, err := reference(ctx, eng, q); err != nil {
			return err
		}
	}
	var sw, nw, bt []float64
	for i := 0; i < 3*ladderSamples; i++ {
		q := take(i % 3)
		t0 := time.Now()
		_, err := reference(ctx, eng, q)
		el := us(time.Since(t0))
		if err != nil {
			return err
		}
		switch q.route {
		case routeSweep:
			sw = append(sw, el)
		case routeEval:
			nw = append(nw, el)
		default:
			bt = append(bt, el)
		}
	}
	r.layer("engine.sweep_us", median(sw), len(sw))
	r.layer("engine.network_us", median(nw), len(nw))
	r.layer("engine.batch_us", median(bt), len(bt))

	if err := buildLadder(r, nil); err != nil {
		return err
	}
	return pipelineLadder(r)
}

// rawPost sends body with the given Accept-Encoding and reads (without
// decoding) the response, returning its byte count.
func rawPost(ctx context.Context, hc *http.Client, url, ctype, enc string, body []byte) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", ctype)
	req.Header.Set("Accept-Encoding", enc)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return io.Copy(io.Discard, resp.Body)
}

// decodeBody is the client's decoding work on a captured identity body:
// JSON decoding plus rebuilding the in-process results.
func decodeBody(route int, b []byte) error {
	switch route {
	case routeSweep:
		var resp onocd.SweepResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		for _, e := range resp.Evaluations {
			if _, err := e.Core(); err != nil {
				return err
			}
		}
	case routeEval:
		var resp onocd.NoCResult
		if err := json.Unmarshal(b, &resp); err != nil {
			return err
		}
		if _, err := resp.Core(); err != nil {
			return err
		}
	default:
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			var it onocd.NoCStreamItem
			if err := json.Unmarshal(line, &it); err != nil {
				return err
			}
			if it.Error != nil {
				return nil // a terminal error line ends the stream
			}
			if it.Result == nil {
				return errors.New("batch item without a result")
			}
			if _, err := it.Result.Core(); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildLadder times noc.Build over the serving topologies, or over cfgs.
func buildLadder(r *report, cfgs []noc.Config) error {
	if cfgs == nil {
		for _, k := range topoKinds {
			kind, err := noc.ParseKind(k)
			if err != nil {
				return err
			}
			for _, t := range topoTiles {
				cfgs = append(cfgs, noc.Config{Kind: kind, Tiles: t})
			}
		}
	}
	var ds []float64
	for rep := 0; rep < 10; rep++ {
		for _, c := range cfgs {
			c.Base = core.DefaultConfig()
			t0 := time.Now()
			if _, err := noc.Build(c); err != nil {
				return fmt.Errorf("noc.Build %v/%d: %w", c.Kind, c.Tiles, err)
			}
			ds = append(ds, us(time.Since(t0)))
		}
	}
	r.layer("noc.build_us", median(ds), len(ds))
	return nil
}

// The FER-inversion ladder's draw: target BERs log-uniform over
// [coldBERLo, coldBERHi], the range whose low end the solver fails on.
const (
	coldBERLo = 1e-12
	coldBERHi = 1e-7
)

// ber draws a target BER, log-uniform over [coldBERLo, coldBERHi].
func ber(rng *rand.Rand) float64 {
	return math.Exp(math.Log(coldBERLo) + rng.Float64()*(math.Log(coldBERHi)-math.Log(coldBERLo)))
}

// pipelineLadder times the cold-solve pipeline's stages over fresh target
// BERs drawn log-uniform over [1e-12, 1e-7] for the extended roster:
// compile, compiled evaluation, the worst operating point and the FER-plan
// inversion. Inversion failures are the solver's known non-convergence near
// 1e-12 and are reported, not filtered.
func pipelineLadder(r *report) error {
	cfg := core.DefaultConfig()
	var comp *core.Compiled
	var cerr error
	r.layer("core.compile_us", timeEach(200, func(int) { comp, cerr = cfg.Compile() }), 200)
	if cerr != nil {
		return cerr
	}
	rng := rand.New(rand.NewPCG(r.cfg.seed, 0xecc))
	const draws = 4000
	bers := make([]float64, draws)
	for i := range bers {
		bers[i] = ber(rng)
	}
	codes := ecc.ExtendedSchemes()
	var inv []float64
	failures := 0
	for _, b := range bers {
		for _, c := range codes {
			p := ecc.PlanFor(c)
			t0 := time.Now()
			_, err := p.RequiredRawBER(b)
			inv = append(inv, us(time.Since(t0)))
			if err != nil {
				failures++
			}
		}
	}
	r.layer("ecc.inversion_us", median(inv), len(inv))
	r.layer("ecc.inversion_failures", float64(failures), len(inv))

	var ev, op []float64
	plan := comp.LinkPlan()
	for _, b := range bers[:500] {
		for _, c := range codes {
			t0 := time.Now()
			e, err := comp.Evaluate(c, b)
			ev = append(ev, us(time.Since(t0)))
			if err != nil {
				continue
			}
			t0 = time.Now()
			_, _ = plan.WorstOperatingPoint(e.SNR) // an infeasible point is an answer, not a failure
			op = append(op, us(time.Since(t0)))
		}
	}
	r.layer("core.eval_us", median(ev), len(ev))
	r.layer("onoc.operating_point_us", median(op), len(op))
	return nil
}
