package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"photonoc/internal/core"
	"photonoc/internal/noc"
)

// NetConfig drives one network-scale discrete-event simulation: a built
// topology, the per-link operating points chosen by noc.EvalSession.Decide
// (the engine layer solves them through its shared LRU and passes them in,
// so the simulator's scheme/DAC decisions are bit-identical to the
// analytic evaluator's), and a synthetic workload drawn from a traffic
// matrix.
type NetConfig struct {
	// Net is the compiled topology the messages traverse.
	Net *noc.Network
	// Decisions are the per-link operating points in link-ID order, as
	// produced by noc.EvalSession.Decide. Every link must be feasible: an
	// infeasible link has no configured scheme to simulate.
	Decisions []noc.LinkDecision
	// Traffic is the row-normalized destination distribution each source
	// samples; nil means uniform. Only message generation reads it —
	// trace replays carry their own destinations.
	Traffic noc.Matrix
	// MessageBits is the payload per message (0 = 4 KiB, the analytic
	// model's default).
	MessageBits int
	// InjectionRateBitsPerSec is the offered payload per active tile.
	InjectionRateBitsPerSec float64
	// Messages is the number of messages to inject across all sources
	// (0 = 20000).
	Messages int
	// Seed makes runs reproducible: same seed ⇒ bit-identical results.
	Seed int64
	// MaxQueueDepth bounds each link's occupancy (waiting + in service);
	// an arrival finding the buffer full is dropped and counted. 0 means
	// unbounded queues — the configuration that exposes saturation as
	// unbounded queue growth.
	MaxQueueDepth int
}

// validateSim checks the fields the replay core uses: the network, its
// decisions and the queue bound. Trace replays carry their own arrival
// times, destinations and payload sizes, so the workload-generation fields
// (Traffic, rate, Messages, MessageBits) are deliberately not required
// here — RunNetworkTrace accepts a zero-generation configuration.
func (c NetConfig) validateSim() (NetConfig, error) {
	if c.Net == nil {
		return c, fmt.Errorf("netsim: nil network")
	}
	if len(c.Decisions) != c.Net.NumLinks() {
		return c, fmt.Errorf("netsim: %d link decisions for %d links", len(c.Decisions), c.Net.NumLinks())
	}
	for i := range c.Decisions {
		if !c.Decisions[i].Feasible {
			return c, fmt.Errorf("netsim: link %d has no feasible scheme: %s", i, c.Decisions[i].InfeasibleReason)
		}
	}
	if c.MaxQueueDepth < 0 {
		return c, fmt.Errorf("netsim: negative max queue depth %d", c.MaxQueueDepth)
	}
	return c, nil
}

// withDefaults is validateSim plus the workload-generation fields
// RecordNetworkTrace consumes, with their defaults resolved.
func (c NetConfig) withDefaults() (NetConfig, error) {
	c, err := c.validateSim()
	if err != nil {
		return c, err
	}
	if c.Traffic == nil {
		c.Traffic = noc.UniformMatrix(c.Net.Tiles())
	}
	if err := c.Traffic.Validate(c.Net.Tiles()); err != nil {
		return c, err
	}
	if c.MessageBits == 0 {
		c.MessageBits = 4096 * 8
	}
	if c.MessageBits < 0 {
		return c, fmt.Errorf("netsim: message size %d must be positive", c.MessageBits)
	}
	if math.IsNaN(c.InjectionRateBitsPerSec) || math.IsInf(c.InjectionRateBitsPerSec, 0) || c.InjectionRateBitsPerSec <= 0 {
		return c, fmt.Errorf("netsim: injection rate %g must be a positive finite number", c.InjectionRateBitsPerSec)
	}
	if c.Messages == 0 {
		c.Messages = 20000
	}
	if c.Messages < 0 {
		return c, fmt.Errorf("netsim: message count %d must be positive", c.Messages)
	}
	return c, nil
}

// NetLinkStats is the per-link view of a network simulation.
type NetLinkStats struct {
	// Link is the link ID (noc.Link order).
	Link int
	// Messages served (drops excluded).
	Messages int64
	// Drops counts arrivals rejected by a full queue (MaxQueueDepth > 0).
	Drops int64
	// Utilization is the fraction of simulated time the link transmitted.
	Utilization float64
	// MeanQueueWaitSec is the mean arbitration wait of served messages.
	MeanQueueWaitSec float64
	// MeanQueueDepth is the time-averaged number of waiting messages
	// (the integral of the queue length over the run, by Little's law the
	// sum of all waits over the simulated time).
	MeanQueueDepth float64
	// MaxQueueDepth is the largest occupancy (waiting + in service) any
	// arrival observed.
	MaxQueueDepth int
	// ActiveEnergyJ is the transfer-scaled energy spent on this link
	// (modulators + interfaces; standing laser energy is accounted
	// network-wide).
	ActiveEnergyJ float64
}

// NetResults summarizes one network simulation.
type NetResults struct {
	// Injected counts generated messages; Messages the delivered ones;
	// Dropped the difference lost to full queues.
	Injected int64
	Messages int64
	Dropped  int64
	// DeliveredBits is the delivered payload.
	DeliveredBits int64
	// SimTimeSec is the horizon: the end of the last transmission or
	// delivery, whichever is later. On lossless runs that is the last
	// delivery; with bounded queues a message can still be transmitting on
	// an early hop (before being dropped downstream) after the final
	// delivery, and the horizon covers it so utilizations stay ≤ 1.
	SimTimeSec float64
	// End-to-end latency statistics (injection → delivery) in seconds.
	MeanLatencySec float64
	P50LatencySec  float64
	P95LatencySec  float64
	P99LatencySec  float64
	MaxLatencySec  float64
	// MeanQueueWaitSec is the mean total arbitration wait per delivered
	// message, summed over its hops.
	MeanQueueWaitSec float64
	// MeanHops is the traffic-weighted route length.
	MeanHops float64
	// Energy split: lasers hold their standing (DAC-quantized) power for
	// the whole run; modulator and interface energy scale with each
	// link's transmission time — the same accounting as
	// noc.EvalSession.Aggregate.
	LaserEnergyJ     float64
	ModulatorEnergyJ float64
	InterfaceEnergyJ float64
	TotalEnergyJ     float64
	// EnergyPerBitJ is total energy over delivered payload bits.
	EnergyPerBitJ float64
	// ThroughputBitsPerSec is delivered payload over simulated time.
	ThroughputBitsPerSec float64
	// MeanUtilization and MaxUtilization summarize the per-link busy
	// fractions.
	MeanUtilization float64
	MaxUtilization  float64
	// SchemeUse counts links per configured scheme name (the simulator
	// configures each link once, from its decision).
	SchemeUse map[string]int
	// Decisions echoes the per-link operating points the run used.
	Decisions []noc.LinkDecision
	// PerLink breaks the run down by link.
	PerLink []NetLinkStats
}

// netEvent is a message's arrival at a hop after its first (at a later
// link of its route). Only these sit on the simulator's event heap; the
// hop-0 arrivals come straight from the arrival stream. seq numbers the
// events in schedule order and breaks exact time ties
// first-scheduled-first-served, which pins the event order — and with it
// every statistic — for a fixed seed.
type netEvent struct {
	at   float64
	seq  uint64
	slot int32 // the message's in-flight slot
	hop  int16 // position in the message's route, ≥ 1
}

// before orders hop arrivals by (time, schedule sequence).
func (e netEvent) before(o netEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// netArrivals is the lazy arrival stream of a configured network workload:
// per-source Poisson processes at the configured injection rate,
// destinations drawn from the traffic matrix, merged in time order through
// a heap that holds each active source's next arrival.
type netArrivals struct {
	rng     *rand.Rand
	srcRate float64
	bits    int
	cdfs    []destCDF
	pending simHeap[arrival]
	left    int // messages still to emit
}

// destCDF is one source's cumulative destination distribution, diagonal
// excluded.
type destCDF struct {
	cum []float64 // cumulative weight over dst
	dst []int32
}

// newNetArrivals seeds the stream of a configuration that has been through
// withDefaults: it draws every active source's first arrival.
func newNetArrivals(cfg NetConfig) (*netArrivals, error) {
	tiles := cfg.Net.Tiles()
	g := &netArrivals{
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		srcRate: cfg.InjectionRateBitsPerSec / float64(cfg.MessageBits),
		bits:    cfg.MessageBits,
		cdfs:    make([]destCDF, tiles),
		pending: make(simHeap[arrival], 0, tiles),
		left:    cfg.Messages,
	}
	for s := 0; s < tiles; s++ {
		c := &g.cdfs[s]
		total := 0.0
		for d := 0; d < tiles; d++ {
			if w := cfg.Traffic[s][d]; w > 0 && d != s {
				total += w
				c.cum = append(c.cum, total)
				c.dst = append(c.dst, int32(d))
			}
		}
	}
	for s := 0; s < tiles; s++ {
		if len(g.cdfs[s].dst) == 0 {
			continue // silent source
		}
		at := g.rng.ExpFloat64() / g.srcRate
		g.pending.push(arrival{at: at, src: int32(s), dst: g.pick(s)})
	}
	if len(g.pending) == 0 {
		return nil, fmt.Errorf("netsim: traffic matrix has no active source")
	}
	return g, nil
}

// pick draws source s's next destination.
func (g *netArrivals) pick(s int) int32 {
	c := &g.cdfs[s]
	r := g.rng.Float64() * c.cum[len(c.cum)-1]
	i := sort.SearchFloat64s(c.cum, r)
	if i == len(c.dst) { // r landed exactly on the total
		i--
	}
	return c.dst[i]
}

// next emits the workload's next arrival in time order (drawing the
// emitting source's successor), or ok=false once cfg.Messages are out.
func (g *netArrivals) next() (ev TraceEvent, ok bool) {
	if g.left == 0 {
		return TraceEvent{}, false
	}
	g.left--
	a := g.pending.pop()
	at := a.at + g.rng.ExpFloat64()/g.srcRate
	g.pending.push(arrival{at: at, src: a.src, dst: g.pick(int(a.src))})
	return TraceEvent{TimeSec: a.at, Src: int(a.src), Dst: int(a.dst), Bits: g.bits}, true
}

// RecordNetworkTrace generates the arrival stream the configured workload
// would produce — per-source Poisson processes at the configured injection
// rate, destinations drawn from the traffic matrix — without simulating the
// network. RunNetwork simulates exactly this stream (it draws it lazily
// instead of recording it), so recorded traces replay to identical results.
func RecordNetworkTrace(ctx context.Context, cfg NetConfig) (Trace, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g, err := newNetArrivals(cfg)
	if err != nil {
		return nil, err
	}
	tr := make(Trace, 0, cfg.Messages)
	for {
		if len(tr)%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ev, ok := g.next()
		if !ok {
			return tr, nil
		}
		tr = append(tr, ev)
	}
}

// RunNetwork generates the configured workload and simulates it. The
// arrivals are drawn lazily as the simulation consumes them, so no trace is
// held in memory; the results are exactly those of RecordNetworkTrace
// followed by RunNetworkTrace (the simulation itself draws no random
// numbers, so interleaving it with generation leaves the draws in order).
func RunNetwork(ctx context.Context, cfg NetConfig) (NetResults, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return NetResults{}, err
	}
	g, err := newNetArrivals(cfg)
	if err != nil {
		return NetResults{}, err
	}
	return simulateNetwork(ctx, cfg, cfg.Messages, g.next)
}

// RunNetworkTrace replays a message trace through the network: every
// message crosses its route's links in order (XY on the mesh, single hop on
// bus/crossbar/ring). Each link is one MWSR server: transfers serialize in
// arrival order at the link's decided capacity (wavelengths × Fmod / CT);
// the fixed token-arbitration cost and the waveguide flight time are
// charged per hop as pipeline latency that does not occupy the medium, so
// the per-link occupancy process is exactly the M/D/1 abstraction the
// analytic aggregates assume — that is what makes the two comparable
// statistic for statistic. The run is single-threaded and seeded, hence
// bit-identical across repetitions regardless of who solved the decisions.
//
// The simulation is a streaming merge. Hop-0 arrivals are read in order
// straight from the time-ordered trace; only the later hops of messages in
// flight wait on the event heap. Events run in (time, sequence) order,
// where a hop-0 arrival's sequence number is its trace index and later hops
// are numbered after the whole trace in the order they are scheduled — so
// on an exact time tie a trace arrival runs before a later hop, and two
// later hops run in the order they were scheduled.
func RunNetworkTrace(ctx context.Context, cfg NetConfig, tr Trace) (NetResults, error) {
	cfg, err := cfg.validateSim()
	if err != nil {
		return NetResults{}, err
	}
	i := 0
	return simulateNetwork(ctx, cfg, len(tr), func() (TraceEvent, bool) {
		if i == len(tr) {
			return TraceEvent{}, false
		}
		i++
		return tr[i-1], true
	})
}

// netMsg is the state of a message between hops: only multi-hop messages
// that have left their first link hold one, in a reused slot.
type netMsg struct {
	injected float64
	waited   float64 // accumulated queue wait across hops
	src, dst int32
	bits     int
}

// simulateNetwork is the DES core of RunNetwork and RunNetworkTrace. next
// yields the hop-0 arrivals; each is held to Trace.Validate's rules as it
// is read, so a bad trace fails with the error Validate would give. n is
// the expected number of arrivals, a capacity hint.
func simulateNetwork(ctx context.Context, cfg NetConfig, n int, next func() (TraceEvent, bool)) (NetResults, error) {
	tiles := cfg.Net.Tiles()

	// Route table and per-link derived constants, resolved once.
	routes := make([][][]int, tiles)
	for s := 0; s < tiles; s++ {
		routes[s] = make([][]int, tiles)
		for d := 0; d < tiles; d++ {
			if s == d {
				continue
			}
			var err error
			if routes[s][d], err = cfg.Net.Route(s, d); err != nil {
				return NetResults{}, err
			}
		}
	}
	nLinks := cfg.Net.NumLinks()
	perBit := make([]float64, nLinks) // serialization seconds per payload bit
	prop := make([]float64, nLinks)
	for i := 0; i < nLinks; i++ {
		l := cfg.Net.LinkRef(i)
		perBit[i] = 1 / l.CapacityBitsPerSec(cfg.Decisions[i].Eval.CT)
		prop[i] = l.PropagationDelaySec()
	}

	// Per-link server state.
	nextFree := make([]float64, nLinks)
	busy := make([]float64, nLinks)
	waitSum := make([]float64, nLinks)
	served := make([]int64, nLinks)
	drops := make([]int64, nLinks)
	maxDepth := make([]int, nLinks)
	// departed[l] holds the departure times of messages still occupying
	// link l (waiting or in service), oldest first — a ring-free FIFO used
	// only to read the instantaneous occupancy at arrivals.
	departed := make([][]float64, nLinks)
	head := make([]int, nLinks)

	res := NetResults{
		SchemeUse: make(map[string]int, len(cfg.Decisions)),
		Decisions: append([]noc.LinkDecision(nil), cfg.Decisions...),
	}
	for i := range cfg.Decisions {
		res.SchemeUse[cfg.Decisions[i].Eval.Code.Name()]++
	}

	// The merge: arr is the stream's next hop-0 arrival (valid while more),
	// events the later hops in flight, slots their messages' state (free
	// lists the reusable slots).
	var (
		events simHeap[netEvent]
		seq    uint64
		slots  []netMsg
		free   []int32
		first  netMsg // the hop-0 message being served
		prevAt float64
	)
	arr, more := next()
	if more {
		if err := arr.check(0, 0, tiles); err != nil {
			return NetResults{}, err
		}
	}

	latencies := make([]float64, 0, n)
	var hopSum int64
	var queueWaitTotal float64
	processed := 0
	for more || len(events) > 0 {
		if processed%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return NetResults{}, err
			}
		}
		processed++

		var (
			at   float64
			hop  int
			slot int32 = -1
			m    *netMsg
		)
		if more && (len(events) == 0 || arr.TimeSec <= events[0].at) {
			// A stream arrival wins ties: its sequence number (its trace
			// index) precedes every later hop's.
			first = netMsg{injected: arr.TimeSec, src: int32(arr.Src), dst: int32(arr.Dst), bits: arr.Bits}
			m, at = &first, arr.TimeSec
			res.Injected++
			prevAt = arr.TimeSec
			if arr, more = next(); more {
				if err := arr.check(int(res.Injected), prevAt, tiles); err != nil {
					return NetResults{}, err
				}
			}
		} else {
			ev := events.pop()
			slot, hop, at = ev.slot, int(ev.hop), ev.at
			m = &slots[slot]
		}
		route := routes[m.src][m.dst]
		l := route[hop]

		// Drop the expired occupants, then test the buffer bound.
		dep := departed[l]
		for head[l] < len(dep) && dep[head[l]] <= at {
			head[l]++
		}
		occupancy := len(dep) - head[l]
		if cfg.MaxQueueDepth > 0 && occupancy >= cfg.MaxQueueDepth {
			drops[l]++
			res.Dropped++
			if slot >= 0 {
				free = append(free, slot)
			}
			continue
		}
		if occupancy+1 > maxDepth[l] {
			maxDepth[l] = occupancy + 1
		}

		start := at
		if nextFree[l] > start {
			start = nextFree[l]
		}
		transfer := float64(m.bits) * perBit[l]
		wait := start - at
		nextFree[l] = start + transfer
		busy[l] += transfer
		waitSum[l] += wait
		served[l]++
		m.waited += wait
		if head[l] > 64 && head[l]*2 > len(dep) {
			// Compact the occupancy FIFO once the dead prefix dominates.
			// A compaction copies fewer entries than were dequeued since
			// the last one, so the cost stays amortized O(1) with a small
			// threshold; a large one would keep thousands of dead entries
			// per link, most of a run's allocation.
			departed[l] = append(dep[:0], dep[head[l]:]...)
			head[l] = 0
		}
		departed[l] = append(departed[l], nextFree[l])

		// Token grant and waveguide flight are pipeline latency on the
		// message's clock, not server occupancy.
		out := start + transfer + core.TokenOverheadSec + prop[l]
		if hop+1 < len(route) {
			if slot < 0 {
				// Leaving its first link: the message takes a slot.
				if k := len(free); k > 0 {
					slot, free = free[k-1], free[:k-1]
					slots[slot] = *m
				} else {
					slot = int32(len(slots))
					slots = append(slots, *m)
				}
			}
			events.push(netEvent{at: out, seq: seq, slot: slot, hop: int16(hop + 1)})
			seq++
			continue
		}
		// Delivered.
		res.Messages++
		res.DeliveredBits += int64(m.bits)
		hopSum += int64(len(route))
		queueWaitTotal += m.waited
		latencies = append(latencies, out-m.injected)
		if out > res.SimTimeSec {
			res.SimTimeSec = out
		}
		if slot >= 0 {
			free = append(free, slot)
		}
	}

	// The horizon must cover every transmission, not just deliveries: with
	// bounded queues a message can be served on an early hop after the last
	// delivery and then be dropped downstream, and clipping the horizon at
	// the last delivery would report utilizations above 1 and undercount
	// standing laser time. Lossless runs are unaffected (the final service
	// on any link always precedes that message's own delivery).
	for _, free := range nextFree {
		if free > res.SimTimeSec {
			res.SimTimeSec = free
		}
	}

	// Energy: standing lasers for the whole horizon, activity-scaled
	// modulators and interfaces — noc.EvalSession.Aggregate's model, so
	// matched utilizations imply matched power.
	res.PerLink = make([]NetLinkStats, nLinks)
	for i := 0; i < nLinks; i++ {
		l := cfg.Net.LinkRef(i)
		d := &cfg.Decisions[i]
		nw := float64(len(l.Lambdas))
		laserE := d.LaserPowerW * nw * res.SimTimeSec
		modE := l.Config.ModulatorPowerW * nw * busy[i]
		intfE := l.Config.InterfacePowerFor(d.Eval.Code).TotalW() * busy[i]
		res.LaserEnergyJ += laserE
		res.ModulatorEnergyJ += modE
		res.InterfaceEnergyJ += intfE

		st := NetLinkStats{Link: i, Messages: served[i], Drops: drops[i], MaxQueueDepth: maxDepth[i], ActiveEnergyJ: modE + intfE}
		if res.SimTimeSec > 0 {
			st.Utilization = busy[i] / res.SimTimeSec
			st.MeanQueueDepth = waitSum[i] / res.SimTimeSec
		}
		if served[i] > 0 {
			st.MeanQueueWaitSec = waitSum[i] / float64(served[i])
		}
		res.PerLink[i] = st
		if st.Utilization > res.MaxUtilization {
			res.MaxUtilization = st.Utilization
		}
		res.MeanUtilization += st.Utilization / float64(nLinks)
	}
	res.TotalEnergyJ = res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ

	if len(latencies) > 0 {
		sort.Float64s(latencies)
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		n := float64(len(latencies))
		res.MeanLatencySec = sum / n
		res.P50LatencySec = percentile(latencies, 0.50)
		res.P95LatencySec = percentile(latencies, 0.95)
		res.P99LatencySec = percentile(latencies, 0.99)
		res.MaxLatencySec = latencies[len(latencies)-1]
		res.MeanQueueWaitSec = queueWaitTotal / n
		res.MeanHops = float64(hopSum) / n
	}
	if res.DeliveredBits > 0 {
		res.EnergyPerBitJ = res.TotalEnergyJ / float64(res.DeliveredBits)
	}
	if res.SimTimeSec > 0 {
		res.ThroughputBitsPerSec = float64(res.DeliveredBits) / res.SimTimeSec
	}
	return res, nil
}
