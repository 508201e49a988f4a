package main

import (
	"context"
	"fmt"
	"time"

	"photonoc"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
	"photonoc/internal/tune"
)

// Campaign shape: the default design space at the documented default swarm.
const (
	tuneParticles   = 16
	tuneGenerations = 20
	tuneTargetBER   = 1e-11
	// digestCampaigns is the fixed prefix of campaigns whose fronts are
	// digested, so the digest does not depend on how many campaigns fit in
	// the measured time.
	digestCampaigns = 3
)

// tuneWorkers is each campaign engine's worker count. One worker keeps a
// campaign on one CPU: on the reference machine (a 2-vCPU VM), work spread
// over both vCPUs drifted between runs about three times as much as work
// on one.
const tuneWorkers = 1

// rateWindows is how many chunks of a closed-loop run its throughput is
// the median over.
const rateWindows = 6

// warmUpIndex is the first campaign or design index of the unmeasured
// warm-up runs.
const warmUpIndex = 1 << 30

// campaignSeed derives campaign j's seed from the workload seed.
func campaignSeed(seed uint64, j int) int64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x>>1) + 1
}

// campaign is one finished tune campaign with its timings, in process CPU
// time (see cpuNow).
type campaign struct {
	res   *tune.Result
	setup time.Duration
	total time.Duration // set-up plus the campaign
	gens  []float64     // per-generation CPU time, ms
	stats engine.CacheStats
	front int // front size (the loop keeps only the last front itself)
}

// runCampaign builds a fresh Engine and runs campaign j on it, as a user
// running onoctune would.
func runCampaign(ctx context.Context, seed uint64, j int, tr *tracer) (campaign, *photonoc.Engine, error) {
	t0 := cpuNow()
	opts := []photonoc.Option{photonoc.WithWorkers(tuneWorkers)}
	if tr != nil {
		opts = append(opts, engine.WithObserver(tr))
	}
	eng, err := photonoc.New(opts...)
	if err != nil {
		return campaign{}, nil, err
	}
	c := campaign{setup: cpuNow() - t0}
	last := cpuNow()
	ctx, sp := tr.begin(ctx, "tune", "")
	res, err := eng.Tune(ctx, photonoc.TuneOptions{
		Seed:        campaignSeed(seed, j),
		Particles:   tuneParticles,
		Generations: tuneGenerations,
		TargetBER:   tuneTargetBER,
		Objective:   manager.MinEnergy,
		OnGeneration: func(int, []tune.Point) error {
			now := cpuNow()
			c.gens = append(c.gens, ms(now-last))
			last = now
			return nil
		},
	})
	sp.end()
	if err != nil {
		return campaign{}, nil, fmt.Errorf("campaign %d: %w", j, err)
	}
	c.res, c.total, c.stats, c.front = res, cpuNow()-t0, eng.CacheStats(), len(res.Front)
	return c, eng, nil
}

// frontChecker re-evaluates front points through Engine.Network on one
// engine per scheme roster.
type frontChecker struct {
	engines map[string]*engine.Engine
}

// check verifies a campaign: its front is mutually non-dominated and every
// point re-evaluates bit-identically through Engine.Network.
func (fc *frontChecker) check(ctx context.Context, res *tune.Result) error {
	if len(res.Front) == 0 {
		return fmt.Errorf("empty front")
	}
	obj := func(p *tune.Point) [3]float64 {
		return [3]float64{p.EnergyPerBitJ, p.P99LatencySec, -p.SaturationBitsPerSec}
	}
	for i := range res.Front {
		for j := range res.Front {
			a, b := obj(&res.Front[i]), obj(&res.Front[j])
			if i != j && a[0] <= b[0] && a[1] <= b[1] && a[2] <= b[2] && a != b {
				return fmt.Errorf("front point %d dominates point %d", i, j)
			}
		}
	}
	for i := range res.Front {
		pt := &res.Front[i]
		eng, topo, opts, err := fc.candidate(pt)
		if err != nil {
			return err
		}
		ref, err := eng.Network(ctx, topo, opts)
		if err != nil {
			return fmt.Errorf("front point %d (%s): %w", i, pt.Spec.String(), err)
		}
		if ref.EnergyPerBitJ != pt.EnergyPerBitJ || ref.P99LatencySec != pt.P99LatencySec ||
			ref.SaturationInjectionBitsPerSec != pt.SaturationBitsPerSec {
			return fmt.Errorf("front point %d (%s) does not re-evaluate: archived (%g, %g, %g), network (%g, %g, %g)",
				i, pt.Spec.String(), pt.EnergyPerBitJ, pt.P99LatencySec, pt.SaturationBitsPerSec,
				ref.EnergyPerBitJ, ref.P99LatencySec, ref.SaturationInjectionBitsPerSec)
		}
	}
	return nil
}

// candidate rebuilds a front point's evaluation inputs by hand from its spec.
func (fc *frontChecker) candidate(pt *tune.Point) (*engine.Engine, noc.Config, noc.EvalOptions, error) {
	key := fmt.Sprint(pt.Spec.Roster)
	eng, ok := fc.engines[key]
	if !ok {
		codes := make([]ecc.Code, len(pt.Spec.Roster))
		for k, name := range pt.Spec.Roster {
			c, ok := schemeByName(name)
			if !ok {
				return nil, noc.Config{}, noc.EvalOptions{}, fmt.Errorf("front names unknown scheme %q", name)
			}
			codes[k] = c
		}
		var err error
		if eng, err = engine.New(engine.WithSchemes(codes...)); err != nil {
			return nil, noc.Config{}, noc.EvalOptions{}, err
		}
		fc.engines[key] = eng
	}
	topo := noc.Config{Kind: pt.Spec.Kind, Tiles: pt.Spec.Tiles, Columns: pt.Spec.Columns}
	if pt.Spec.Wavelengths > 0 {
		topo.Base = core.DefaultConfig()
		topo.Base.Channel.Grid.Count = pt.Spec.Wavelengths
	}
	opts := noc.EvalOptions{TargetBER: tuneTargetBER, Objective: manager.MinEnergy}
	if pt.Spec.DACBits > 0 {
		opts.DAC = &manager.DAC{Bits: pt.Spec.DACBits, MaxOpticalW: manager.PaperDAC().MaxOpticalW}
	}
	return eng, topo, opts, nil
}

// frontDigest digests a campaign's front: specs and objectives.
func frontDigest(h *hasher, res *tune.Result) {
	h.i(int64(res.Evaluated))
	h.i(int64(res.Infeasible))
	for _, p := range res.Front {
		h.s(p.Spec.String())
		h.f(p.EnergyPerBitJ)
		h.f(p.P99LatencySec)
		h.f(p.SaturationBitsPerSec)
	}
}

// campaignLoop runs campaigns j = first, first+1, ... for budget of wall
// time, checking each one outside the timed interval. It returns the
// campaigns, their CPU time and the last campaign's engine (only that one
// is kept).
func campaignLoop(ctx context.Context, r *report, first int, budget time.Duration, tr *tracer,
	fc *frontChecker, h *hasher) ([]campaign, time.Duration, *photonoc.Engine, error) {
	var out []campaign
	var busy time.Duration
	var last *photonoc.Engine
	for j, t0 := first, time.Now(); time.Since(t0) < budget || len(out) == 0; j++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, nil, err
		}
		c, eng, err := runCampaign(ctx, r.cfg.seed, j, tr)
		if err != nil {
			r.op(false, false)
			fmt.Fprintln(r.cfg.out, "FAILED", err)
			continue
		}
		busy += c.total
		if err := fc.check(ctx, c.res); err != nil {
			r.op(false, true)
			fmt.Fprintf(r.cfg.out, "WRONG campaign %d: %v\n", j, err)
		} else {
			r.op(true, false)
		}
		if j < digestCampaigns {
			frontDigest(h, c.res)
		}
		if len(out) > 0 {
			out[len(out)-1].res.Front = nil // only the last front is used again
		}
		out = append(out, c)
		last = eng
	}
	return out, busy, last, nil
}

func candidates(cs []campaign) int {
	n := 0
	for _, c := range cs {
		n += c.res.Evaluated
	}
	return n
}

// digestRest runs the campaigns of the digested prefix that the measured
// loops did not reach, and reports the digest.
func digestRest(ctx context.Context, r *report, done int, h *hasher) error {
	for j := done; j < digestCampaigns; j++ {
		c, _, err := runCampaign(ctx, r.cfg.seed, j, nil)
		if err != nil {
			return err
		}
		frontDigest(h, c.res)
	}
	r.digest("fronts", uint64(*h), digestCampaigns)
	return nil
}

func runTuneCampaign(ctx context.Context, r *report) error {
	fc := &frontChecker{engines: map[string]*engine.Engine{}}
	h := newHasher()
	// Warm-up campaigns take indices far past the measured ones; they are
	// neither timed nor counted.
	for j, t0 := warmUpIndex, time.Now(); time.Since(t0) < warmUpTime; j++ {
		if _, _, err := runCampaign(ctx, r.cfg.seed, j, nil); err != nil {
			return err
		}
	}
	if !r.cfg.trace {
		heap := startHeapSampler()
		cs, _, _, err := campaignLoop(ctx, r, 0, r.cfg.budget(1), nil, fc, &h)
		heap.finish(r)
		if err != nil {
			return err
		}
		if err := digestRest(ctx, r, len(cs), &h); err != nil {
			return err
		}
		var setups, durs []time.Duration
		var gens []float64
		var work []int
		for _, c := range cs {
			setups = append(setups, c.setup)
			gens = append(gens, c.gens...)
			durs = append(durs, c.total)
			work = append(work, c.res.Evaluated)
		}
		r.setupTimes(setups)
		cps := windowRate(durs, work, rateWindows)
		r.e2e("ops_per_cpu_s", cps, candidates(cs))
		r.info("candidates_per_cpu_s", cps, "1/s", candidates(cs))
		r.e2e("p50_ms", median(gens), len(gens))
		r.e2e("p95_ms", quantile(gens, 0.95), len(gens))
		r.info("generation.p50_ms", median(gens), "ms", len(gens))
		r.info("generation.p99_ms", quantile(gens, 0.99), "ms", len(gens))
		r.info("fail_share", float64(r.failed.Load())/float64(r.attempted.Load()), "ratio", int(r.attempted.Load()))
		return nil
	}

	tr := newTracer()
	before := readRuntime()
	plain, busy0, _, err := campaignLoop(ctx, r, 0, r.cfg.budget(0.3), nil, fc, &h)
	if err != nil {
		return err
	}
	r.perOp(before, candidates(plain))
	tr.on.Store(true)
	traced, busy1, lastEng, err := campaignLoop(ctx, r, len(plain), r.cfg.budget(0.4), tr, fc, &h)
	tr.on.Store(false)
	if err != nil {
		return err
	}
	cps0 := float64(candidates(plain)) / busy0.Seconds()
	cps1 := float64(candidates(traced)) / busy1.Seconds()
	r.info("candidates_per_cpu_s.untraced", cps0, "1/s", candidates(plain))
	r.info("candidates_per_cpu_s.traced", cps1, "1/s", candidates(traced))
	r.layer("trace.overhead_pct", 100*(cps0/cps1-1), candidates(traced))
	if err := tr.finish(r, candidates(traced)); err != nil {
		return err
	}

	var st engine.CacheStats
	var gens []float64
	evaluated, infeasible := 0, 0
	for _, c := range append(plain, traced...) {
		gens = append(gens, c.gens...)
		evaluated += c.res.Evaluated
		infeasible += c.res.Infeasible
	}
	for _, c := range traced {
		st.Hits += c.stats.Hits
		st.Misses += c.stats.Misses
		st.ColdSolves += c.stats.ColdSolves
		st.ColdSolveTime += c.stats.ColdSolveTime
		st.SharedSolves += c.stats.SharedSolves
		st.SessionReuses += c.stats.SessionReuses
	}
	n := len(traced)
	r.layer("engine.hit_ratio", st.HitRate(), int(st.Hits+st.Misses))
	r.layer("engine.cold_solves", float64(st.ColdSolves)/float64(n), n)
	r.layer("engine.cold_solve_us", us(st.AvgColdSolve()), int(st.ColdSolves))
	r.layer("engine.shared_solves", float64(st.SharedSolves)/float64(n), n)
	r.layer("engine.session_reuse_cells", float64(st.SessionReuses)/float64(n), n)
	r.layer("tune.generation_ms", median(gens), len(gens))
	r.layer("tune.infeasible_share", float64(infeasible)/float64(evaluated), evaluated)
	r.layer("tune.front_size", float64(plain[0].front), 1)
	r.layer("fail_share", float64(r.failed.Load())/float64(r.attempted.Load()), int(r.attempted.Load()))
	if err := digestRest(ctx, r, len(plain)+len(traced), &h); err != nil {
		return err
	}

	// A warmed NetworkSession over the last campaign's front, and noc.Build
	// over the front's topologies.
	last := traced[len(traced)-1]
	sess := lastEng.NewNetworkSession()
	var cands []engine.NetworkCandidate
	var topos []noc.Config
	for i := range last.res.Front {
		_, topo, opts, err := fc.candidate(&last.res.Front[i])
		if err != nil {
			return err
		}
		codes := make([]ecc.Code, 0, len(last.res.Front[i].Spec.Roster))
		for _, name := range last.res.Front[i].Spec.Roster {
			c, _ := schemeByName(name) // resolved by candidate above
			codes = append(codes, c)
		}
		cands = append(cands, engine.NetworkCandidate{Topology: topo, Schemes: codes, Opts: opts})
		topos = append(topos, noc.Config{Kind: topo.Kind, Tiles: topo.Tiles, Columns: topo.Columns})
	}
	for _, c := range cands {
		if _, err := sess.Evaluate(ctx, c); err != nil {
			return err
		}
	}
	var evalErr error
	const sessionEvals = 2000
	r.layer("engine.session_eval_us", timeEach(sessionEvals, func(i int) {
		if _, err := sess.Evaluate(ctx, cands[i%len(cands)]); err != nil {
			evalErr = err
		}
	}), sessionEvals)
	if evalErr != nil {
		return evalErr
	}
	return buildLadder(r, topos)
}
