package netsim

import (
	"context"
	"sort"

	"photonoc/internal/core"
	"photonoc/internal/noc"
)

// This file keeps the full-heap network DES — every hop-0 arrival of the
// trace pushed onto one event heap before the run starts, a message table
// as long as the trace — as the reference the streaming core is checked
// against (TestStreamingMatchesFullHeapReference). Apart from its name and
// the test-local types below, the loop is the historical RunNetworkTrace,
// kept verbatim; do not "fix" it.

// refNetMsg is the reference loop's per-message state.
type refNetMsg struct {
	injected float64
	waited   float64 // accumulated queue wait across hops
	src, dst int32
	bits     int
}

// refNetEvent is the reference loop's event: every hop of every message,
// ordered by (time, schedule sequence), hop-0 arrivals numbered by trace
// index.
type refNetEvent struct {
	at  float64
	seq uint64
	msg int32 // index into the run's message table
	hop int16 // position in the message's route
}

func (e refNetEvent) before(o refNetEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// referenceRunNetworkTrace is the full-heap DES loop (see the file comment).
func referenceRunNetworkTrace(ctx context.Context, cfg NetConfig, tr Trace) (NetResults, error) {
	cfg, err := cfg.validateSim()
	if err != nil {
		return NetResults{}, err
	}
	tiles := cfg.Net.Tiles()
	if err := tr.Validate(tiles); err != nil {
		return NetResults{}, err
	}

	// Route table and per-link derived constants, resolved once.
	routes := make([][][]int, tiles)
	for s := 0; s < tiles; s++ {
		routes[s] = make([][]int, tiles)
		for d := 0; d < tiles; d++ {
			if s == d {
				continue
			}
			if routes[s][d], err = cfg.Net.Route(s, d); err != nil {
				return NetResults{}, err
			}
		}
	}
	links := cfg.Net.Links()
	nLinks := len(links)
	perBit := make([]float64, nLinks) // serialization seconds per payload bit
	prop := make([]float64, nLinks)
	for i := range links {
		perBit[i] = 1 / links[i].CapacityBitsPerSec(cfg.Decisions[i].Eval.CT)
		prop[i] = links[i].PropagationDelaySec()
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

	msgs := make([]refNetMsg, len(tr))
	var events simHeap[refNetEvent]
	var seq uint64
	for i, ev := range tr {
		msgs[i] = refNetMsg{injected: ev.TimeSec, src: int32(ev.Src), dst: int32(ev.Dst), bits: ev.Bits}
		events.push(refNetEvent{at: ev.TimeSec, seq: seq, msg: int32(i), hop: 0})
		seq++
	}

	res := NetResults{
		Injected:  int64(len(tr)),
		SchemeUse: make(map[string]int, len(cfg.Decisions)),
		Decisions: append([]noc.LinkDecision(nil), cfg.Decisions...),
	}
	for i := range cfg.Decisions {
		res.SchemeUse[cfg.Decisions[i].Eval.Code.Name()]++
	}

	latencies := make([]float64, 0, len(tr))
	var hopSum int64
	var queueWaitTotal float64
	processed := 0
	for len(events) > 0 {
		if processed%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return NetResults{}, err
			}
		}
		processed++
		ev := events.pop()
		m := &msgs[ev.msg]
		route := routes[m.src][m.dst]
		l := route[ev.hop]

		// Drop the expired occupants, then test the buffer bound.
		dep := departed[l]
		for head[l] < len(dep) && dep[head[l]] <= ev.at {
			head[l]++
		}
		occupancy := len(dep) - head[l]
		if cfg.MaxQueueDepth > 0 && occupancy >= cfg.MaxQueueDepth {
			drops[l]++
			res.Dropped++
			continue
		}
		if occupancy+1 > maxDepth[l] {
			maxDepth[l] = occupancy + 1
		}

		start := ev.at
		if nextFree[l] > start {
			start = nextFree[l]
		}
		transfer := float64(m.bits) * perBit[l]
		wait := start - ev.at
		nextFree[l] = start + transfer
		busy[l] += transfer
		waitSum[l] += wait
		served[l]++
		m.waited += wait
		if head[l] > 4096 && head[l]*2 > len(dep) {
			// Compact the occupancy FIFO once the dead prefix dominates.
			departed[l] = append(dep[:0], dep[head[l]:]...)
			head[l] = 0
		}
		departed[l] = append(departed[l], nextFree[l])

		// Token grant and waveguide flight are pipeline latency on the
		// message's clock, not server occupancy.
		out := start + transfer + core.TokenOverheadSec + prop[l]
		if int(ev.hop)+1 < len(route) {
			events.push(refNetEvent{at: out, seq: seq, msg: ev.msg, hop: ev.hop + 1})
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
	for i := range links {
		l := &links[i]
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
