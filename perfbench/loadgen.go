package main

import (
	"context"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// loadgen is an open-loop request generator: requests are due on a seeded
// Poisson schedule whatever the server's progress, a fixed set of workers
// (one connection each) sends them, and each request is timed from its due
// time, so a stall is charged to every request it delays. Only the send is
// timed: inputs are made before a phase and answers checked after their
// request's timing ends.
type loadgen struct {
	workers int
	seed    uint64
	tr      *tracer
	// prepare, if set, makes requests [from, from+n) before a phase starts.
	prepare func(from, n int)
	// send issues request i and returns the check that records its answer
	// and reports whether it succeeded.
	send func(ctx context.Context, i int) (check func() bool)
	// next is the index of the next request; inputs continue across phases.
	next  int
	phase uint64
	// lastRate is the last closed-loop rate measured: how many requests a
	// closed-loop phase should prepare.
	lastRate float64
}

// phaseResult is the outcome of one fixed-rate phase.
type phaseResult struct {
	rate      float64
	scheduled int
	sent      int
	ok        int
	lat       []float64 // ms from due time to completion, successful requests
	late      []float64 // ms from due time to send, in send order
}

// schedule returns the due offsets of a phase at rate requests/s lasting
// dur: exponential gaps drawn from unit-rate variates seeded by the workload
// seed and the phase number, so a seed fixes the schedule's shape at every
// rate.
func schedule(seed, phase uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 0x5c4ed<<20|phase))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// run drives one phase at the given rate.
func (g *loadgen) run(ctx context.Context, rate float64, dur time.Duration) phaseResult {
	offs := schedule(g.seed, g.phase, rate, dur)
	g.phase++
	base := g.next
	g.next += len(offs)
	res := phaseResult{rate: rate, scheduled: len(offs)}
	if g.prepare != nil {
		g.prepare(base, len(offs))
	}

	start := time.Now()
	grace := start.Add(dur + dur/2 + 100*time.Millisecond)
	var (
		claim atomic.Int64
		wg    sync.WaitGroup
	)
	// Each worker writes only the samples it claimed; wg.Wait orders those
	// writes before the reads below.
	type sample struct {
		late, lat float64
		sent, ok  bool
	}
	samples := make([]sample, len(offs))
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(claim.Add(1) - 1)
				if j >= len(offs) {
					return
				}
				due := start.Add(offs[j])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				if now.After(grace) || ctx.Err() != nil {
					return
				}
				rctx, sp := g.tr.beginAt(ctx, "loadgen", due)
				check := g.send(rctx, base+j)
				done := time.Now()
				sp.end()
				samples[j] = sample{late: ms(now.Sub(due)), lat: ms(done.Sub(due)), sent: true, ok: check()}
			}
		}()
	}
	wg.Wait()
	for _, s := range samples {
		if !s.sent {
			continue
		}
		res.sent++
		res.late = append(res.late, s.late)
		if s.ok {
			res.ok++
			res.lat = append(res.lat, s.lat)
		}
	}
	return res
}

// closedLoop sends requests back to back on one connection for dur, and
// returns the process CPU time (see cpuNow) each took, in ms: the CPU time
// from its send to its answer, so the benchmark's checking of the answer,
// done between sends, stays out of it.
func (g *loadgen) closedLoop(ctx context.Context, dur time.Duration) []float64 {
	base := g.next
	if g.prepare != nil {
		g.prepare(base, int(1.5*g.lastRate*dur.Seconds())+4)
	}
	var cpu []float64
	for stop := time.Now().Add(dur); ctx.Err() == nil && time.Now().Before(stop); {
		c0 := cpuNow()
		check := g.send(ctx, base+len(cpu))
		cpu = append(cpu, ms(cpuNow()-c0))
		check()
	}
	g.next = base + len(cpu)
	g.lastRate = float64(len(cpu)) / dur.Seconds()
	return cpu
}

// warmUp runs the closed loop for d, so a machine that was idle reaches
// its steady speed before anything is measured.
func (g *loadgen) warmUp(ctx context.Context, d time.Duration) { g.closedLoop(ctx, d) }
