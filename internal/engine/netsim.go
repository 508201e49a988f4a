package engine

import (
	"context"
	"fmt"

	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// NetworkSimOptions parameterizes one network-scale discrete-event
// simulation run (Engine.SimulateNetwork).
type NetworkSimOptions struct {
	// TargetBER is the post-decoding BER every link must meet.
	TargetBER float64
	// Objective picks the per-link scheme (manager.Better's rule).
	Objective manager.Objective
	// DAC, when non-nil, quantizes each link's laser setting exactly as
	// the runtime manager would program it.
	DAC *manager.DAC
	// Traffic is the row-normalized traffic matrix; nil means uniform.
	Traffic noc.Matrix
	// InjectionRateBitsPerSec is the offered payload per active tile;
	// 0 simulates at half the analytic saturation rate — the same default
	// operating point the analytic aggregation evaluates, so analytic and
	// simulated results are directly comparable out of the box.
	InjectionRateBitsPerSec float64
	// MessageBits is the payload per message (0 = 4 KiB).
	MessageBits int
	// Messages is the number of messages to inject (0 = 20000).
	Messages int
	// Seed makes runs reproducible.
	Seed int64
	// MaxQueueDepth bounds per-link occupancy (0 = unbounded; see
	// netsim.NetConfig.MaxQueueDepth).
	MaxQueueDepth int
}

// SimulateNetwork runs the network-scale discrete-event simulator over a
// topology. The per-link scheme/DAC decisions and the default injection
// rate come from one NetworkSession evaluation at the target BER — the
// same path as Network, with every solve keyed in the shared LRU by the
// link's configuration fingerprint — so the simulated decisions are
// bit-identical to the analytic evaluator's. The event-driven simulation
// then replays a seeded synthetic workload over the routes. The simulation
// core is sequential, so results for a fixed seed are bit-identical across
// engine worker counts.
//
// A topology with an infeasible link cannot be simulated and returns an
// error wrapping ErrInfeasible (unlike the analytic Network, which reports
// it in the Result).
func (e *Engine) SimulateNetwork(ctx context.Context, cfg noc.Config, opts NetworkSimOptions) (netsim.NetResults, error) {
	if err := validateBER(opts.TargetBER); err != nil {
		return netsim.NetResults{}, err
	}
	net, err := e.BuildNetwork(cfg)
	if err != nil {
		return netsim.NetResults{}, err
	}
	if opts.Traffic != nil {
		// Fail fast, before the link solves: the simulator re-validates,
		// but by then every link has been solved.
		if err := opts.Traffic.Validate(net.Tiles()); err != nil {
			return netsim.NetResults{}, fmt.Errorf("%w: %v", ErrInvalidInput, err)
		}
	}

	// The decisions alias the session, so it is held until the simulator
	// (which copies them into its results) returns.
	sess := e.acquireSession()
	defer e.releaseSession(sess)
	sess.invalidate()
	ana, err := sess.Evaluate(ctx, NetworkCandidate{Topology: cfg, Opts: noc.EvalOptions{
		TargetBER:               opts.TargetBER,
		Objective:               opts.Objective,
		Traffic:                 opts.Traffic,
		InjectionRateBitsPerSec: opts.InjectionRateBitsPerSec,
		MessageBits:             opts.MessageBits,
		DAC:                     opts.DAC,
	}})
	if err != nil {
		return netsim.NetResults{}, err
	}
	for i := range ana.Decisions {
		if !ana.Decisions[i].Feasible {
			return netsim.NetResults{}, fmt.Errorf("%w: link %d: %s", ErrInfeasible, i, ana.Decisions[i].InfeasibleReason)
		}
	}

	// The analytic result is evaluated at the requested rate, or — for a
	// zero rate — at half the saturation rate of this exact decision set,
	// the default operating point the simulation adopts too.
	res, err := netsim.RunNetwork(ctx, netsim.NetConfig{
		Net:                     net,
		Decisions:               ana.Decisions,
		Traffic:                 opts.Traffic,
		MessageBits:             opts.MessageBits,
		InjectionRateBitsPerSec: ana.InjectionRateBitsPerSec,
		Messages:                opts.Messages,
		Seed:                    opts.Seed,
		MaxQueueDepth:           opts.MaxQueueDepth,
	})
	if err != nil && ctx.Err() == nil {
		// Everything netsim rejects at this point is a per-call input
		// (negative counts, malformed rate); cancellation passes through.
		return res, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	return res, err
}
