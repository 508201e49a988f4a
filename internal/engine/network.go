package engine

import (
	"context"
	"fmt"
	"reflect"

	"photonoc/internal/core"
	"photonoc/internal/noc"
)

// netPlanCap bounds the per-link compiled-plan registry; compiling is cheap
// (one optical budget pass per distinct configuration), so a full registry
// is flushed rather than tracked for recency.
const netPlanCap = 512

// NetworkResult is one streamed network-sweep outcome: the aggregated
// evaluation of the whole topology at one target BER. Index is the position
// in the equivalent batch NetworkSweep slice (BER order); a terminal
// failure arrives as the final NetworkResult with Err set.
type NetworkResult struct {
	Index     int
	TargetBER float64
	Result    noc.Result
	Err       error
}

// netBuildKey identifies one built topology for the engine's build memo:
// the scalar topology parameters plus the base configuration fingerprint.
type netBuildKey struct {
	kind           noc.Kind
	tiles, columns int
	pitchCM        float64
	baseFP         string
}

// BuildNetwork compiles a topology configuration against this engine: a
// zero Base adopts the engine's link configuration (the common case — the
// engine's calibrated channel becomes the prototype every link derives
// from). The returned network is immutable and reusable across
// evaluations; repeated builds of the same topology (Network/NetworkSweep
// call it per evaluation) are served from a memo, so a fixed topology
// re-evaluated across traffic matrices or rates never re-derives links,
// wavelength blocks or routes.
func (e *Engine) BuildNetwork(cfg noc.Config) (*noc.Network, error) {
	baseFP := e.fingerprint
	adoptBase := reflect.ValueOf(cfg.Base).IsZero()
	if !adoptBase {
		var err error
		if baseFP, err = Fingerprint(cfg.Base); err != nil {
			return nil, err
		}
	}
	key := netBuildKey{kind: cfg.Kind, tiles: cfg.Tiles, columns: cfg.Columns, pitchCM: cfg.TilePitchCM, baseFP: baseFP}
	e.netMu.Lock()
	net, ok := e.netBuilt[key]
	e.netMu.Unlock()
	if ok {
		return net, nil
	}
	// Adopt the engine configuration only on a memo miss: the copy
	// allocates, and the warm path — every steady-state session
	// evaluation — must not.
	if adoptBase {
		cfg.Base = e.Config()
	}
	net, err := noc.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	e.netMu.Lock()
	if e.netBuilt == nil || len(e.netBuilt) >= netPlanCap {
		e.netBuilt = make(map[netBuildKey]*noc.Network, 8)
	}
	e.netBuilt[key] = net
	e.netMu.Unlock()
	return net, nil
}

// compiledForLink returns the compiled solve plan of one link, memoized by
// configuration fingerprint. Links matching the engine's own configuration
// (the degenerate bus case) are served from the engine's plan, so their
// solves are bit-identical to — and cache-shared with — single-link sweeps.
func (e *Engine) compiledForLink(l *noc.Link) (*core.Compiled, error) {
	if l.Fingerprint == e.fingerprint {
		return e.compiled, nil
	}
	e.netMu.Lock()
	c, ok := e.netPlans[l.Fingerprint]
	e.netMu.Unlock()
	if ok {
		return c, nil
	}
	cfg := l.Config
	c, err := cfg.Compile()
	if err != nil {
		return nil, fmt.Errorf("%w: link %d: %v", ErrInvalidConfig, l.ID, err)
	}
	e.netMu.Lock()
	if e.netPlans == nil || len(e.netPlans) >= netPlanCap {
		e.netPlans = make(map[string]*core.Compiled, netPlanCap)
	}
	e.netPlans[l.Fingerprint] = c
	e.netMu.Unlock()
	return c, nil
}

// Network evaluates one topology at opts.TargetBER as a single candidate
// on a pooled NetworkSession: every link is solved against the engine's
// scheme roster (links sharing a configuration fingerprint share
// memo-cache entries), the per-link winners are picked with the manager's
// selection rule, and the traffic matrix is folded into network energy,
// saturation throughput and latency figures. The session's previous
// candidate is dropped first, so every cell goes through the memo cache and
// a loop of Network calls never counts as session reuse. A link with no
// feasible scheme does not error: the Result comes back with Feasible ==
// false, mirroring single-link evaluations.
func (e *Engine) Network(ctx context.Context, cfg noc.Config, opts noc.EvalOptions) (noc.Result, error) {
	sess := e.acquireSession()
	defer e.releaseSession(sess)
	sess.invalidate()
	res, err := sess.Evaluate(ctx, NetworkCandidate{Topology: cfg, Opts: opts})
	if err != nil {
		return noc.Result{}, err
	}
	return res.Clone(), nil
}

// sweepCandidates validates a network sweep request before any solve runs —
// the BER grid, the topology and the evaluation options — and expands it
// into one NetworkBatch candidate per target BER, in grid order.
func (e *Engine) sweepCandidates(cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) ([]NetworkCandidate, error) {
	if len(targetBERs) == 0 {
		return nil, fmt.Errorf("%w: empty BER grid", ErrInvalidInput)
	}
	for _, ber := range targetBERs {
		if err := validateBER(ber); err != nil {
			return nil, err
		}
	}
	net, err := e.BuildNetwork(cfg)
	if err != nil {
		return nil, err
	}
	opts.TargetBER = targetBERs[0]
	if err := opts.Validate(net); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	cands := make([]NetworkCandidate, len(targetBERs))
	for i, ber := range targetBERs {
		opts.TargetBER = ber
		cands[i] = NetworkCandidate{Topology: cfg, Opts: opts}
	}
	return cands, nil
}

// NetworkSweep evaluates the topology across a grid of target BERs as a
// BER-ordered NetworkBatch: the grid points fan across the worker pool,
// one candidate per point, and the result slice is identical regardless
// of the worker count. opts.TargetBER is ignored — each grid point uses
// its own BER.
func (e *Engine) NetworkSweep(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) ([]noc.Result, error) {
	cands, err := e.sweepCandidates(cfg, targetBERs, opts)
	if err != nil {
		return nil, err
	}
	return e.NetworkBatch(ctx, cands)
}

// NetworkSweepStream is the streaming variant of NetworkSweep, a
// BER-ordered NetworkBatchStream: it returns immediately with a channel
// yielding one aggregated NetworkResult per target BER, in grid order, as
// soon as that point (and all its predecessors) has been evaluated. The
// channel is buffered for the whole grid; on error or cancellation the
// stream ends early with a final NetworkResult carrying Err, and the
// channel is always closed.
func (e *Engine) NetworkSweepStream(ctx context.Context, cfg noc.Config, targetBERs []float64, opts noc.EvalOptions) <-chan NetworkResult {
	cands, err := e.sweepCandidates(cfg, targetBERs, opts)
	if err != nil {
		out := make(chan NetworkResult, 1)
		out <- NetworkResult{Index: 0, Err: err}
		close(out)
		return out
	}
	return e.NetworkBatchStream(ctx, cands)
}
