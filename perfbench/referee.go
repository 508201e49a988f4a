package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"photonoc"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/mathx"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// Referee shape.
const (
	refereeBER = 1e-11
	// refereeMessages is the DES length the README envelope was measured
	// at; shorter runs drift outside it by chance and by their finite
	// horizon.
	refereeMessages = 100_000
	refereeFrames   = 200_000
	// digestDesigns is the fixed prefix of designs whose DES statistics and
	// MC counts are digested.
	digestDesigns = 8
)

// refereeRawBERs are the raw channel BERs each chosen scheme is validated at.
var refereeRawBERs = []float64{1e-3, 1e-2}

// The README "Network DES" envelope for uniform designs at half saturation.
const (
	envUtilAbs    = 0.01
	envLatencyRel = 0.10
	envEnergyRel  = 0.05
	// wilsonZ is the width, in standard deviations, of the Wilson interval
	// around the MC frame error rate that must contain the plan's
	// prediction. A run makes a thousand or more such checks, and at 3σ
	// each one alone fails by chance 0.27% of the time — several false
	// failures per run. 5σ keeps the chance of any false failure in a
	// run near that of one 3σ check; the count of checks outside 3σ is
	// still reported (mc.outside_3sigma).
	wilsonZ = 5
)

// design is one refereed network design.
type design struct {
	topo    noc.Config
	hotspot bool
	traffic noc.Matrix
	seed    int64
}

// designShapes is the number of kind × tiles × {uniform, hotspot} shapes.
var designShapes = len(topoKinds) * len(topoTiles) * 2

// makeDesign makes design i. Designs walk the kind × tiles × {uniform,
// hotspot} shapes in a fresh seeded order every designShapes designs, so
// every run referees the same mix whatever its seed; the seed picks the
// order, the hotspot tile and the simulators' seeds.
func makeDesign(seed uint64, i int) (design, error) {
	shape := cyc(seed, 0xde5, i, designShapes)
	rng := rand.New(rand.NewPCG(seed, 0xde5<<32|uint64(i)))
	kind, err := noc.ParseKind(topoKinds[shape/(2*len(topoTiles))])
	if err != nil {
		return design{}, err
	}
	d := design{
		topo:    noc.Config{Kind: kind, Tiles: topoTiles[shape/2%len(topoTiles)]},
		hotspot: shape%2 == 1,
		seed:    int64(rng.Uint64() >> 1),
	}
	if d.hotspot {
		m, err := netsim.Hotspot.Matrix(d.topo.Tiles, rng.IntN(d.topo.Tiles), 0.3)
		if err != nil {
			return design{}, err
		}
		d.traffic = m
	}
	return d, nil
}

func (d design) String() string {
	pattern := "uniform"
	if d.hotspot {
		pattern = "hotspot"
	}
	return fmt.Sprintf("%v-%d-%s", d.topo.Kind, d.topo.Tiles, pattern)
}

// refereeOutcome is one design's timings and results. total is process
// CPU time (see cpuNow); the stages are wall time, for the traced run.
type refereeOutcome struct {
	total, network, simulate, validate time.Duration
	sim                                netsim.NetResults
	mcs                                []mc.Result
	outside3                           int  // MC checks outside the 3σ interval
	ok                                 bool // every check passed
}

// referee runs one design through the three evaluators and checks that they
// agree: analytic network → DES at half saturation → MC of each chosen
// scheme.
func referee(ctx context.Context, eng *photonoc.Engine, tr *tracer, d design) (refereeOutcome, error) {
	var o refereeOutcome
	c0, t0 := cpuNow(), time.Now()
	opts := noc.EvalOptions{TargetBER: refereeBER, Objective: manager.MinEnergy, Traffic: d.traffic}

	sctx, sp := tr.begin(ctx, "engine", "")
	ana, err := eng.Network(sctx, d.topo, opts)
	sp.end()
	o.network = time.Since(t0)
	if err != nil {
		return o, fmt.Errorf("network: %w", err)
	}
	if !ana.Feasible {
		return o, fmt.Errorf("network infeasible: %s", ana.InfeasibleReason)
	}

	t1 := time.Now()
	sctx, sp = tr.begin(ctx, "netsim", "")
	o.sim, err = eng.SimulateNetwork(sctx, d.topo, engine.NetworkSimOptions{
		TargetBER: refereeBER, Objective: manager.MinEnergy, Traffic: d.traffic,
		Messages: refereeMessages, Seed: d.seed,
	})
	sp.end()
	o.simulate = time.Since(t1)
	if err != nil {
		return o, fmt.Errorf("simulate: %w", err)
	}

	schemes := make([]string, 0, len(ana.SchemeUse))
	for name := range ana.SchemeUse {
		schemes = append(schemes, name)
	}
	sort.Strings(schemes)
	t2 := time.Now()
	for k, name := range schemes {
		code, ok := schemeByName(name)
		if !ok {
			return o, fmt.Errorf("unknown scheme %q", name)
		}
		for pi, p := range refereeRawBERs {
			sctx, sp = tr.begin(ctx, "mc", "")
			res, err := eng.ValidateMC(sctx, code, p, mc.Options{
				Frames: refereeFrames, Seed: d.seed + int64(16*k+pi), Workers: 1,
			})
			sp.end()
			if err != nil {
				return o, fmt.Errorf("validate %s at %g: %w", name, p, err)
			}
			o.mcs = append(o.mcs, res)
		}
	}
	o.validate = time.Since(t2)
	o.total = cpuNow() - c0
	return o, checkAgreement(d, &ana, &o)
}

// checkAgreement is the three-evaluator agreement check.
func checkAgreement(d design, ana *noc.Result, o *refereeOutcome) error {
	sim := &o.sim
	if sim.Dropped != 0 || sim.Messages != sim.Injected || sim.Messages == 0 {
		return fmt.Errorf("%s: lossy DES run (%d of %d delivered)", d, sim.Messages, sim.Injected)
	}
	if !d.hotspot {
		var util float64
		for _, l := range ana.Loads {
			util += l.Utilization
		}
		util /= float64(len(ana.Loads))
		if diff := math.Abs(sim.MeanUtilization - util); diff > envUtilAbs {
			return fmt.Errorf("%s: mean utilization analytic %.4f, DES %.4f", d, util, sim.MeanUtilization)
		}
		if rel := math.Abs(sim.MeanLatencySec-ana.MeanLatencySec) / ana.MeanLatencySec; rel > envLatencyRel {
			return fmt.Errorf("%s: mean latency analytic %.4g s, DES %.4g s (%.1f%%)", d, ana.MeanLatencySec, sim.MeanLatencySec, 100*rel)
		}
		if rel := math.Abs(sim.EnergyPerBitJ-ana.EnergyPerBitJ) / ana.EnergyPerBitJ; rel > envEnergyRel {
			return fmt.Errorf("%s: energy/bit analytic %.4g J, DES %.4g J (%.1f%%)", d, ana.EnergyPerBitJ, sim.EnergyPerBitJ, 100*rel)
		}
	}
	for _, res := range o.mcs {
		code, _ := schemeByName(res.Code)
		want := ecc.PlanFor(code).FrameErrorRate(res.P)
		if lo, hi := mathx.WilsonInterval(res.FrameErrors, res.Frames, 3); want < lo || want > hi {
			o.outside3++
		}
		lo, hi := mathx.WilsonInterval(res.FrameErrors, res.Frames, wilsonZ)
		if want < lo || want > hi {
			return fmt.Errorf("%s: MC %s at p=%g: FER %d/%d outside Wilson %gσ [%.4g, %.4g] of plan %.4g",
				d, res.Code, res.P, res.FrameErrors, res.Frames, float64(wilsonZ), lo, hi, want)
		}
	}
	return nil
}

// refereeLoop referees designs first, first+1, ... for budget of wall time.
// It returns every design's outcome, how many passed, their CPU time, and
// how many MC checks fell outside 3σ. If setups is not nil, it also times
// the construction of a fresh Engine before each design, outside the
// design's CPU time, so that the set-up samples spread over the whole run
// as the designs do.
func refereeLoop(ctx context.Context, r *report, eng *photonoc.Engine, tr *tracer, first int,
	budget time.Duration, h *hasher, setups *[]time.Duration) ([]refereeOutcome, int, time.Duration, int, error) {
	var out []refereeOutcome
	var busy time.Duration
	passed, outside := 0, 0
	for i, t0 := first, time.Now(); time.Since(t0) < budget || len(out) == 0; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, 0, err
		}
		d, err := makeDesign(r.cfg.seed, i)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		if setups != nil {
			c0 := cpuNow()
			if _, err := photonoc.New(); err != nil {
				return nil, 0, 0, 0, err
			}
			*setups = append(*setups, cpuNow()-c0)
		}
		dctx, sp := tr.begin(ctx, "design", "")
		o, err := referee(dctx, eng, tr, d)
		sp.end()
		busy += o.total
		outside += o.outside3
		o.ok = err == nil
		out = append(out, o)
		if err != nil {
			r.op(false, true)
			fmt.Fprintf(r.cfg.out, "WRONG design %d (%s): %v\n", i, d, err)
			continue
		}
		r.op(true, false)
		passed++
		if i < digestDesigns {
			outcomeDigest(h, &o)
		}
	}
	return out, passed, busy, outside, nil
}

func outcomeDigest(h *hasher, o *refereeOutcome) {
	h.netResults(&o.sim)
	for _, m := range o.mcs {
		h.s(m.Code)
		h.f(m.P)
		h.i(m.Frames)
		h.i(m.FrameErrors)
		h.i(m.BitErrors)
		h.i(m.DetectedFrames)
	}
}

func runReferee(ctx context.Context, r *report) error {
	var tr *tracer
	var opts []photonoc.Option
	if r.cfg.trace {
		tr = newTracer()
		opts = append(opts, engine.WithObserver(tr))
	}
	eng, err := photonoc.New(opts...)
	if err != nil {
		return err
	}
	h := newHasher()
	for i, t0 := warmUpIndex, time.Now(); time.Since(t0) < warmUpTime; i++ {
		d, err := makeDesign(r.cfg.seed, i)
		if err != nil {
			return err
		}
		// Only the load matters here; the measured designs are the ones checked.
		_, _ = referee(ctx, eng, nil, d)
	}
	if !r.cfg.trace {
		var setups []time.Duration
		heap := startHeapSampler()
		outs, passed, _, outside, err := refereeLoop(ctx, r, eng, nil, 0, r.cfg.budget(1), &h, &setups)
		heap.finish(r)
		if err != nil {
			return err
		}
		r.setupTimes(setups)
		var per []float64
		var durs []time.Duration
		var work []int
		for _, o := range outs {
			durs = append(durs, o.total)
			if o.ok {
				per = append(per, ms(o.total))
				work = append(work, 1)
			} else {
				work = append(work, 0)
			}
		}
		dps := windowRate(durs, work, rateWindows)
		r.e2e("ops_per_cpu_s", dps, passed)
		r.info("designs_per_cpu_s", dps, "1/s", passed)
		r.e2e("p50_ms", median(per), len(per))
		r.e2e("p95_ms", quantile(per, 0.95), len(per))
		r.info("fail_share", float64(r.failed.Load())/float64(r.attempted.Load()), "ratio", int(r.attempted.Load()))
		r.info("mc.outside_3sigma", float64(outside), "count", int(r.attempted.Load()))
		r.digest("des+mc", uint64(h), digestDesigns)
		return nil
	}

	before := readRuntime()
	plain, p0, busy0, out0, err := refereeLoop(ctx, r, eng, nil, 0, r.cfg.budget(0.4), &h, nil)
	if err != nil {
		return err
	}
	r.perOp(before, len(plain))
	st0 := eng.CacheStats()
	tr.on.Store(true)
	traced, p1, busy1, out1, err := refereeLoop(ctx, r, eng, tr, len(plain), r.cfg.budget(0.5), &h, nil)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	st1 := eng.CacheStats()
	dps0, dps1 := float64(p0)/busy0.Seconds(), float64(p1)/busy1.Seconds()
	r.info("designs_per_cpu_s.untraced", dps0, "1/s", p0)
	r.info("designs_per_cpu_s.traced", dps1, "1/s", p1)
	r.layer("trace.overhead_pct", 100*(dps0/dps1-1), p1)
	if err := tr.finish(r, len(traced)); err != nil {
		return err
	}
	r.digest("des+mc", uint64(h), digestDesigns)

	all := append(plain, traced...)
	var netw, simms, valms []float64
	var msgs, frames int64
	var simT, valT time.Duration
	for _, o := range all {
		if !o.ok {
			continue
		}
		netw = append(netw, us(o.network))
		simms = append(simms, ms(o.simulate))
		valms = append(valms, ms(o.validate))
		msgs += o.sim.Messages
		simT += o.simulate
		for _, m := range o.mcs {
			frames += m.Frames
		}
		valT += o.validate
	}
	r.layer("engine.network_us", median(netw), len(netw))
	r.layer("engine.simulate_ms", median(simms), len(simms))
	r.layer("netsim.msgs_per_s", float64(msgs)/simT.Seconds(), len(all))
	r.layer("engine.validate_ms", median(valms), len(valms))
	r.layer("mc.frames_per_s", float64(frames)/valT.Seconds(), len(all))
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	r.layer("engine.hit_ratio", float64(hits)/math.Max(1, float64(hits+misses)), int(hits+misses))
	r.layer("engine.cold_solves", float64(st1.ColdSolves-st0.ColdSolves)/float64(len(traced)), len(traced))
	if cs := st1.ColdSolves - st0.ColdSolves; cs > 0 {
		r.layer("engine.cold_solve_us", us(st1.ColdSolveTime-st0.ColdSolveTime)/float64(cs), int(cs))
	}
	r.layer("engine.shared_solves", float64(st1.SharedSolves-st0.SharedSolves)/float64(len(traced)), len(traced))
	r.layer("fail_share", float64(r.failed.Load())/float64(r.attempted.Load()), int(r.attempted.Load()))
	r.layer("mc.outside_3sigma", float64(out0+out1), int(r.attempted.Load()))

	var topos []noc.Config
	for i := 0; i < designShapes; i++ {
		d, err := makeDesign(r.cfg.seed, i)
		if err != nil {
			return err
		}
		topos = append(topos, d.topo)
	}
	return buildLadder(r, topos)
}
