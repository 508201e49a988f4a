package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/resilience"
)

// TestSameSeedSameInputs pins the generator contract: a seed fixes the
// open-loop schedule and every input the program receives, and another
// seed changes them.
func TestSameSeedSameInputs(t *testing.T) {
	a := schedule(7, 3, 250, time.Second)
	if !reflect.DeepEqual(a, schedule(7, 3, 250, time.Second)) {
		t.Fatal("same seed and phase gave different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 3, 250, time.Second)) {
		t.Fatal("another seed gave the same schedule")
	}
	if len(a) < 150 || len(a) > 350 {
		t.Fatalf("%d arrivals in 1 s at 250/s", len(a))
	}
	g1, g2, other := newServeGen(7), newServeGen(7), newServeGen(8)
	differ := false
	for i := 0; i < 200; i++ {
		_, _, b1 := g1.request(i).body()
		_, _, b2 := g2.request(i).body()
		_, _, b3 := other.request(i).body()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("request %d differs under the same seed", i)
		}
		differ = differ || !bytes.Equal(b1, b3)
	}
	if !differ {
		t.Fatal("seeds 7 and 8 gave identical requests")
	}
	d1, err := makeDesign(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := makeDesign(7, 5)
	if !reflect.DeepEqual(d1, d2) || campaignSeed(7, 5) != campaignSeed(7, 5) {
		t.Fatal("designs or campaign seeds differ under the same seed")
	}
}

// TestDesignMix checks that every block of designShapes designs covers
// each shape once, whatever the seed.
func TestDesignMix(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		seen := map[string]int{}
		for i := 0; i < 2*designShapes; i++ {
			d, err := makeDesign(seed, i)
			if err != nil {
				t.Fatal(err)
			}
			seen[d.String()]++
		}
		if len(seen) != designShapes {
			t.Fatalf("seed %d: %d shapes in two blocks, want %d", seed, len(seen), designShapes)
		}
		for shape, n := range seen {
			if n != 2 {
				t.Fatalf("seed %d: shape %s drawn %d times in two blocks", seed, shape, n)
			}
		}
	}
}

// TestRouteMix checks the serving mix: 60% sweep, 30% noc/eval and 10%
// noc/batch in every block of ten requests.
func TestRouteMix(t *testing.T) {
	g := newServeGen(3)
	var n [3]int
	for i := 0; i < 1000; i++ {
		n[g.request(i).route]++
	}
	if n != [3]int{600, 300, 100} {
		t.Fatalf("route counts %v, want [600 300 100]", n)
	}
}

// Faults the test transport injects into one response.
const (
	faultNone    = iota
	faultFlip    // a decodable answer with one field changed
	faultGarble  // a 2xx body that does not decode
	faultNetwork // a failed round trip
)

// corrupting injects the armed fault into the next response.
type corrupting struct {
	next http.RoundTripper
	arm  atomic.Int32
}

func (c *corrupting) RoundTrip(req *http.Request) (*http.Response, error) {
	fault := c.arm.Swap(faultNone)
	if fault == faultNetwork {
		return nil, errors.New("connection reset by peer")
	}
	resp, err := c.next.RoundTrip(req)
	if err != nil || fault == faultNone {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	bad := []byte("{not json\n")
	if fault == faultFlip {
		bad = bytes.Replace(body, []byte(`"feasible": true`), []byte(`"feasible": false`), 1)
		if bytes.Equal(bad, body) {
			panic("nothing to corrupt")
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(bad))
	resp.ContentLength = int64(len(bad))
	return resp, nil
}

// TestCorruptedResponseCountsFailed sends warm requests to a real daemon
// and injects one fault of each kind below the client: a changed answer
// and an undecodable body must count failed and wrong, a network failure
// failed but not wrong.
func TestCorruptedResponseCountsFailed(t *testing.T) {
	r := newReport(runConfig{workload: "serve_warm", seed: 1, out: io.Discard})
	s := &serveRun{r: r, gen: newServeGen(1), seen: map[int]outcome{}}
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	// One attempt per request, so an injected fault is the request's fate.
	s.client.Retry = resilience.NewRetrier(resilience.NoRetry())
	w := s.client.HTTP.Transport.(*netWatch)
	c := &corrupting{next: w.next}
	w.next = c
	ctx := context.Background()
	faults := map[int]int32{4: faultFlip, 6: faultGarble, 9: faultNetwork}
	const n = 12
	for i := 0; i < n; i++ {
		c.arm.Store(faults[i])
		if ok := s.send(ctx, i)(); ok != (faults[i] == faultFlip || faults[i] == faultNone) {
			t.Fatalf("request %d (fault %d): ok=%v", i, faults[i], ok)
		}
	}
	if err := s.verify(ctx); err != nil {
		t.Fatal(err)
	}
	if a, f, w := r.attempted.Load(), r.failed.Load(), r.wrong.Load(); a != n || f != 3 || w != 2 {
		t.Fatalf("attempted %d failed %d wrong %d, want %d/3/2", a, f, w, n)
	}
}

// TestAgreementCheckCatchesWrongOutputs corrupts a referee outcome: a DES
// run that lost messages, and an MC count far from the plan.
func TestAgreementCheckCatchesWrongOutputs(t *testing.T) {
	d := design{topo: noc.Config{Kind: noc.Bus, Tiles: 8}}
	ana := noc.Result{MeanLatencySec: 1e-6, EnergyPerBitJ: 1e-12, Loads: []noc.LinkLoad{{Utilization: 0.5}}}
	good := refereeOutcome{sim: netsim.NetResults{Injected: 100, Messages: 100,
		MeanLatencySec: 1e-6, EnergyPerBitJ: 1e-12, MeanUtilization: 0.5}}
	if err := checkAgreement(d, &ana, &good); err != nil {
		t.Fatalf("consistent outcome rejected: %v", err)
	}
	lossy := good
	lossy.sim.Messages = 99
	if checkAgreement(d, &ana, &lossy) == nil {
		t.Fatal("lossy DES run accepted")
	}
	badMC := good
	badMC.mcs = []mc.Result{{Code: "H(7,4)", P: 1e-2, Frames: 1 << 20, FrameErrors: 0}}
	if checkAgreement(d, &ana, &badMC) == nil {
		t.Fatal("MC frame error count far from the plan accepted")
	}
}

// TestSelfTimes checks self time: duration minus the union of children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"a": 60, "b": 25 + 20, "c": 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
}

// TestLoadgenPhase drives the open-loop generator against a fake request
// function from its concurrent workers: every scheduled request is sent
// once and failures are counted.
func TestLoadgenPhase(t *testing.T) {
	var calls atomic.Int64
	g := &loadgen{workers: 2, seed: 5, send: func(_ context.Context, i int) func() bool {
		calls.Add(1)
		return func() bool { return i%50 != 0 }
	}}
	p := g.run(context.Background(), 2000, 200*time.Millisecond)
	if p.sent != p.scheduled || int64(p.sent) != calls.Load() || g.next != p.scheduled {
		t.Fatalf("scheduled %d, sent %d, calls %d, next %d", p.scheduled, p.sent, calls.Load(), g.next)
	}
	if p.ok >= p.sent || p.ok < p.sent*9/10 {
		t.Fatalf("ok %d of %d, want every 50th to fail", p.ok, p.sent)
	}
}

// TestServePhases drives a real daemon through the generator's workers —
// an open-loop phase and a closed-loop phase, with inputs prepared ahead —
// and requires every request checked, none wrong. Run it with -race: the
// workers share the prepared inputs and the recorded outcomes.
func TestServePhases(t *testing.T) {
	r := newReport(runConfig{workload: "serve_warm", seed: 2, out: io.Discard})
	s := &serveRun{r: r, gen: newServeGen(2), seen: map[int]outcome{}}
	if err := s.start(); err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	ctx := context.Background()
	g := &loadgen{workers: 2, seed: 2, prepare: s.prepare, send: s.send}
	// How many requests the workers reach depends on the machine; the
	// counts must agree whatever it is.
	p := g.run(ctx, 100, 300*time.Millisecond)
	if p.sent == 0 || p.ok != p.sent {
		t.Fatalf("open loop: %d scheduled, %d sent, %d ok", p.scheduled, p.sent, p.ok)
	}
	if cpu := g.closedLoop(ctx, 200*time.Millisecond); len(cpu) == 0 || quantile(cpu, 1) <= 0 {
		t.Fatalf("closed loop: CPU times %v", cpu)
	}
	sent := len(s.seen)
	if err := s.verify(ctx); err != nil {
		t.Fatal(err)
	}
	if a, f, w := r.attempted.Load(), r.failed.Load(), r.wrong.Load(); a != int64(sent) || a <= int64(p.sent) || f != 0 || w != 0 {
		t.Fatalf("attempted %d of %d sent, failed %d, wrong %d", a, sent, f, w)
	}
}
