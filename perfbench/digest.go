package main

import (
	"math"
	"sort"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/onocd"
)

// hasher is an FNV-1a 64 digest over exact values: floats by their bits,
// so two outputs digest equal only when they agree bit for bit.
type hasher uint64

func newHasher() hasher { return 14695981039346656037 }

func (h *hasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		*h ^= hasher(v & 0xff)
		*h *= 1099511628211
		v >>= 8
	}
}

func (h *hasher) f(v float64) { h.u64(math.Float64bits(v)) }
func (h *hasher) i(v int64)   { h.u64(uint64(v)) }

func (h *hasher) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *hasher) s(v string) {
	h.i(int64(len(v)))
	for i := 0; i < len(v); i++ {
		*h ^= hasher(v[i])
		*h *= 1099511628211
	}
}

// eval digests every field a wire Evaluation carries; name is the scheme's
// registry name.
func (h *hasher) eval(name string, e *core.Evaluation) {
	h.s(name)
	h.f(e.TargetBER)
	h.f(e.RawBER)
	h.f(e.SNR)
	h.f(e.CT)
	op := &e.Op
	h.i(int64(op.Channel))
	h.f(op.SNR)
	h.f(op.EyeFraction)
	h.f(op.CrosstalkFraction)
	h.f(op.ReceivedOneLevelW)
	h.f(op.BudgetDB)
	h.f(op.LaserOpticalW)
	h.f(op.LaserElectricalW)
	h.b(op.Feasible)
	h.s(op.InfeasibleReason)
	h.f(e.LaserPowerW)
	h.f(e.ModulatorPowerW)
	h.f(e.InterfacePowerW)
	h.f(e.ChannelPowerW)
	h.f(e.EnergyPerBitJ)
	h.b(e.Feasible)
	h.s(e.InfeasibleReason)
}

// coreEval digests an in-process evaluation.
func (h *hasher) coreEval(e *core.Evaluation) {
	name := ""
	if e.Code != nil {
		name = e.Code.Name()
	}
	h.eval(name, e)
}

// wireEval digests a wire evaluation without resolving its scheme name.
func (h *hasher) wireEval(w *onocd.Evaluation) {
	e := core.Evaluation{
		TargetBER: w.TargetBER, RawBER: w.RawBER, SNR: w.SNR, CT: w.CT, Op: w.Op,
		LaserPowerW: w.LaserPowerW, ModulatorPowerW: w.ModulatorPowerW,
		InterfacePowerW: w.InterfacePowerW, ChannelPowerW: w.ChannelPowerW,
		EnergyPerBitJ: w.EnergyPerBitJ, Feasible: w.Feasible, InfeasibleReason: w.InfeasibleReason,
	}
	h.eval(w.Scheme, &e)
}

// nocResult digests every field of a network result that the wire carries
// (a decision crosses the wire as its scheme name and CT, not the whole
// evaluation).
func (h *hasher) nocResult(r *noc.Result) {
	h.s(r.Kind.String())
	h.i(int64(r.Tiles))
	h.i(int64(r.Links))
	h.f(r.TargetBER)
	h.b(r.Feasible)
	h.s(r.InfeasibleReason)
	keys := make([]string, 0, len(r.SchemeUse))
	for k := range r.SchemeUse {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.s(k)
		h.i(int64(r.SchemeUse[k]))
	}
	for i := range r.Decisions {
		d := &r.Decisions[i]
		h.i(int64(d.Link))
		if d.Eval.Code != nil {
			h.s(d.Eval.Code.Name())
		}
		h.f(d.Eval.CT)
		h.f(d.LaserPowerW)
		h.i(int64(d.DACCode))
		h.f(d.EnergyPerBitJ)
		h.b(d.Feasible)
		h.s(d.InfeasibleReason)
	}
	for _, l := range r.Loads {
		h.i(int64(l.Link))
		h.f(l.CapacityBitsPerSec)
		h.f(l.OfferedBitsPerSec)
		h.f(l.Utilization)
		h.f(l.QueueWaitSec)
	}
	for _, v := range []float64{
		r.SaturationInjectionBitsPerSec, r.InjectionRateBitsPerSec, r.DeliveredBitsPerSec,
		r.LaserPowerW, r.ModulatorPowerW, r.InterfacePowerW, r.NetworkPowerW,
		r.EnergyPerBitJ, r.ActiveEnergyPerBitJ,
		r.MeanLatencySec, r.P50LatencySec, r.P95LatencySec, r.P99LatencySec, r.MaxLatencySec,
	} {
		h.f(v)
	}
	h.b(r.Saturated)
}

// netResults digests a discrete-event simulation's statistics.
func (h *hasher) netResults(s *netsim.NetResults) {
	h.i(s.Injected)
	h.i(s.Messages)
	h.i(s.Dropped)
	h.i(s.DeliveredBits)
	for _, v := range []float64{
		s.SimTimeSec, s.MeanLatencySec, s.P50LatencySec, s.P95LatencySec, s.P99LatencySec,
		s.MaxLatencySec, s.MeanQueueWaitSec, s.MeanHops, s.TotalEnergyJ, s.EnergyPerBitJ,
		s.ThroughputBitsPerSec, s.MeanUtilization, s.MaxUtilization,
	} {
		h.f(v)
	}
	for _, l := range s.PerLink {
		h.f(l.Utilization)
	}
}

// schemes maps every extended-registry name to its code, built once:
// ecc.SchemeByName rebuilds the registry on every call, and the benchmark
// must not charge that cost to the layers it times.
var schemes = func() map[string]ecc.Code {
	m := map[string]ecc.Code{}
	for _, c := range ecc.ExtendedSchemes() {
		m[c.Name()] = c
	}
	return m
}()

func schemeByName(name string) (ecc.Code, bool) {
	c, ok := schemes[name]
	return c, ok
}
