package netsim

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/noc"
)

// streamShapes are the topology shapes the streaming core is checked on.
var streamShapes = struct {
	kinds []noc.Kind
	tiles []int
}{
	kinds: []noc.Kind{noc.Bus, noc.Ring, noc.Mesh, noc.Crossbar},
	tiles: []int{4, 8, 12, 16},
}

// TestStreamingMatchesFullHeapReference is the differential test of the
// streaming DES: RunNetwork (generator streamed into the core) and
// RunNetworkTrace (trace streamed into the core) must both reproduce the
// full-heap reference loop field for field, drops included.
func TestStreamingMatchesFullHeapReference(t *testing.T) {
	ctx := context.Background()
	var boundedDrops int64
	for _, kind := range streamShapes.kinds {
		for _, tiles := range streamShapes.tiles {
			net, decisions, opts := buildNetwork(t, kind, tiles, 1e-11)
			for _, hotspot := range []bool{false, true} {
				var traffic noc.Matrix
				if hotspot {
					m, err := Hotspot.Matrix(tiles, tiles/2, 0.3)
					if err != nil {
						t.Fatal(err)
					}
					traffic = m
				}
				opts.Traffic = traffic
				sat := saturationRate(t, net, decisions, opts)
				for _, depth := range []int{0, 2} {
					for seed := int64(1); seed <= 3; seed++ {
						name := fmt.Sprintf("%v-%d hotspot=%v depth=%d seed=%d", kind, tiles, hotspot, depth, seed)
						cfg := NetConfig{
							Net:                     net,
							Decisions:               decisions,
							Traffic:                 traffic,
							InjectionRateBitsPerSec: 0.9 * sat,
							Messages:                1500,
							Seed:                    seed,
							MaxQueueDepth:           depth,
						}
						tr, err := RecordNetworkTrace(ctx, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, err := referenceRunNetworkTrace(ctx, cfg, tr)
						if err != nil {
							t.Fatalf("%s: reference: %v", name, err)
						}
						direct, err := RunNetwork(ctx, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						replayed, err := RunNetworkTrace(ctx, cfg, tr)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(direct, want) {
							t.Fatalf("%s: RunNetwork differs from the full-heap reference", name)
						}
						if !reflect.DeepEqual(replayed, want) {
							t.Fatalf("%s: RunNetworkTrace differs from the full-heap reference", name)
						}
						if depth > 0 {
							boundedDrops += want.Dropped
						}
					}
				}
			}
		}
	}
	if boundedDrops == 0 {
		t.Fatal("no bounded-queue run dropped a message: the drop path went unchecked")
	}
}

// TestStreamingTieRule pins the order of exact time ties on a hand-built
// mesh trace: a trace arrival runs before a later hop that reaches the
// same link at the same instant (its sequence number, the trace index,
// precedes every later hop's), and the whole run matches the full-heap
// reference.
func TestStreamingTieRule(t *testing.T) {
	net, decisions, _ := buildNetwork(t, noc.Mesh, 16, 1e-11)
	cfg := NetConfig{Net: net, Decisions: decisions}

	// Message A crosses two links, first then second; message B's single
	// hop is A's second link.
	var aSrc, aDst, bSrc, bDst, first, second int = -1, -1, -1, -1, -1, -1
	for s := 0; s < 16 && aSrc < 0; s++ {
		for d := 0; d < 16; d++ {
			if r, _ := net.Route(s, d); len(r) == 2 {
				aSrc, aDst, first, second = s, d, r[0], r[1]
				break
			}
		}
	}
	for s := 0; s < 16 && bSrc < 0; s++ {
		for d := 0; d < 16; d++ {
			if r, _ := net.Route(s, d); len(r) == 1 && r[0] == second && s != aSrc {
				bSrc, bDst = s, d
				break
			}
		}
	}
	if aSrc < 0 || bSrc < 0 {
		t.Fatal("no two-hop route whose second link is another pair's only hop")
	}

	// A reaches its second link at exactly tie; B arrives there from the
	// trace at the same time, carrying twice A's payload.
	const bits = 4096 * 8
	l := net.LinkRef(first)
	perBit := 1 / l.CapacityBitsPerSec(decisions[first].Eval.CT)
	tie := float64(float64(bits)*perBit) + core.TokenOverheadSec + l.PropagationDelaySec()
	tr := Trace{
		{TimeSec: 0, Src: aSrc, Dst: aDst, Bits: bits},
		{TimeSec: tie, Src: bSrc, Dst: bDst, Bits: 2 * bits},
	}
	// Pad with duplicate timestamps: bursts of simultaneous arrivals from
	// every tile, so ties among trace arrivals and among later hops occur
	// throughout the run.
	for k := 1; k <= 40; k++ {
		at := tie + float64(k)*20*perBit*bits
		for s := 0; s < 16; s++ {
			tr = append(tr, TraceEvent{TimeSec: at, Src: s, Dst: (s + 5 + k) % 16, Bits: bits})
			if tr[len(tr)-1].Dst == s {
				tr[len(tr)-1].Dst = (s + 1) % 16
			}
		}
	}

	ctx := context.Background()
	got, err := RunNetworkTrace(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceRunNetworkTrace(ctx, cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("streaming run differs from the full-heap reference on a trace with time ties")
	}

	// On its own the tied pair shows the rule: B is served first and A
	// waits B's transfer on the second link, not the other way round.
	pair, err := RunNetworkTrace(ctx, cfg, tr[:2])
	if err != nil {
		t.Fatal(err)
	}
	perBit2 := 1 / net.LinkRef(second).CapacityBitsPerSec(decisions[second].Eval.CT)
	bWait, aWait := 0.0, float64(2*bits)*perBit2
	if got, want := pair.PerLink[second].MeanQueueWaitSec, (aWait+bWait)/2; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("second link mean wait %g, want %g (trace arrival served first on the tie)", got, want)
	}
}

// TestRunNetworkAllocationsPerMessage pins the streaming core's memory: a
// 100k-message RunNetwork allocates at most 48 bytes per message. The
// latency samples alone take 8; the full-heap loop with a materialized
// trace took about 240.
func TestRunNetworkAllocationsPerMessage(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-message run")
	}
	const messages = 100_000
	for _, kind := range []noc.Kind{noc.Mesh, noc.Bus} {
		net, decisions, opts := buildNetwork(t, kind, 16, 1e-11)
		cfg := NetConfig{
			Net:                     net,
			Decisions:               decisions,
			InjectionRateBitsPerSec: 0.5 * saturationRate(t, net, decisions, opts),
			Messages:                messages,
			Seed:                    1,
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunNetwork(context.Background(), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != messages {
			t.Fatalf("%v: delivered %d of %d", kind, res.Messages, messages)
		}
		if perMsg := float64(after.TotalAlloc-before.TotalAlloc) / messages; perMsg > 48 {
			t.Fatalf("%v-16: RunNetwork allocated %.1f B per message, want ≤ 48", kind, perMsg)
		}
	}
}

// BenchmarkRunNetwork times the streaming DES on 16-tile mesh and bus
// networks at half the analytic saturation rate, 100k messages per run.
func BenchmarkRunNetwork(b *testing.B) {
	for _, kind := range []noc.Kind{noc.Mesh, noc.Bus} {
		b.Run(fmt.Sprintf("%v-16", kind), func(b *testing.B) {
			net, decisions, opts := buildNetwork(b, kind, 16, 1e-11)
			cfg := NetConfig{
				Net:                     net,
				Decisions:               decisions,
				InjectionRateBitsPerSec: 0.5 * saturationRate(b, net, decisions, opts),
				Messages:                100_000,
				Seed:                    1,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunNetwork(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cfg.Messages)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
		})
	}
}
