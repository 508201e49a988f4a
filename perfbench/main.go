// Command perfbench is the photonoc repository benchmark. It runs one of three
// seeded workloads against the program's public entry points — the onocd
// daemon and client, the Engine, the autotuner and the two simulators —
// checks every output it receives against an independent in-process
// evaluation, and prints its metrics:
//
//	bash perfbench/run.sh --workload serve_warm --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it records spans around every public call it makes and
// reports the per-layer metrics, layer self times and the tracing overhead.
// Human-readable lines (metric, value, unit, sample count) come first; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// README.md in this directory documents the workloads, the layers each one
// loads and bypasses, and which layer metric should move which end-to-end
// metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0, in BENCHMARK.json order. What an "op" is depends on the
// workload: a request (serve_warm), a tuner candidate (tune_campaign) or a
// refereed design (referee); see README.md.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// routeNames are the per-route suffixes of the onocd layer metrics.
var routeNames = [...]string{"sweep", "noc_eval", "noc_batch"}

// layerNames are the layers whose self time the traced run reports.
var layerNames = []string{"loadgen", "onocd_client", "onocd_transport", "onocd_server",
	"engine", "cold_solve", "tune", "netsim", "mc"}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1, in BENCHMARK.json order. A workload reports 0 for a layer it
// bypasses.
var layerMetrics = func() []metricDef {
	var defs []metricDef
	for _, m := range []metricDef{
		{"onocd.http_rtt_us", "us"}, {"onocd.http_rtt_identity_us", "us"},
		{"onocd.handler_us", "us"}, {"onocd.handler_identity_us", "us"},
		{"onocd.client_decode_us", "us"},
		{"onocd.resp_bytes", "B"}, {"onocd.resp_gzip_bytes", "B"},
	} {
		for _, r := range routeNames {
			defs = append(defs, metricDef{m.name + "." + r, m.unit})
		}
	}
	defs = append(defs, []metricDef{
		{"onocd.retries", "count"},
		{"onocd.admission_rejects", "count"},
		{"engine.hit_ratio", "ratio"},
		{"engine.cold_solves", "count"},
		{"engine.cold_solve_us", "us"},
		{"engine.shared_solves", "count"},
		{"engine.sweep_us", "us"},
		{"engine.network_us", "us"},
		{"engine.batch_us", "us"},
		{"engine.session_reuse_cells", "count"},
		{"engine.session_eval_us", "us"},
		{"core.compile_us", "us"},
		{"core.eval_us", "us"},
		{"onoc.operating_point_us", "us"},
		{"ecc.inversion_us", "us"},
		{"ecc.inversion_failures", "count"},
		{"noc.build_us", "us"},
		{"tune.generation_ms", "ms"},
		{"tune.infeasible_share", "ratio"},
		{"tune.front_size", "count"},
		{"netsim.msgs_per_s", "1/s"},
		{"engine.simulate_ms", "ms"},
		{"mc.frames_per_s", "1/s"},
		{"engine.validate_ms", "ms"},
		{"mc.outside_3sigma", "count"},
		{"runtime.alloc_bytes_per_op", "B"},
		{"runtime.gc_cycles_per_op", "count"},
		{"loadgen.late_p99_ms", "ms"},
		{"fail_share", "ratio"},
		{"trace.overhead_pct", "%"},
	}...)
	for _, l := range layerNames {
		defs = append(defs, metricDef{"self_us." + l, "us"})
	}
	return defs
}()

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      io.Writer // human-readable lines
}

// budget returns the share f of the measured time.
func (c runConfig) budget(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// report accumulates one run's operation counts and metrics. The counters
// are atomic because the load generator's workers update them concurrently.
type report struct {
	cfg       runConfig
	attempted atomic.Int64
	failed    atomic.Int64
	// wrong counts outputs that disagree with the independent reference —
	// failed operations that also make the run incorrect.
	wrong   atomic.Int64
	metrics map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(cfg runConfig) *report {
	return &report{cfg: cfg, metrics: map[string]metric{}}
}

// op records one attempted operation: ok false counts it failed, and wrong
// additionally marks the output as incorrect.
func (r *report) op(ok, wrong bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
	if wrong {
		r.wrong.Add(1)
	}
}

// e2e sets an end-to-end metric; it reaches the JSON line of untraced runs.
func (r *report) e2e(name string, v float64, samples int) {
	if !r.cfg.trace {
		r.set(name, v)
	}
	r.line(name, v, unitOf(e2eMetrics, name), samples)
}

// layer sets a per-layer metric; it reaches the JSON line of traced runs.
func (r *report) layer(name string, v float64, samples int) {
	if r.cfg.trace {
		r.set(name, v)
	}
	r.line(name, v, unitOf(layerMetrics, name), samples)
}

// info prints a metric that has no place in the JSON line: a workload's
// own name for a generic end-to-end metric, or a sub-figure.
func (r *report) info(name string, v float64, unit string, samples int) {
	r.line(name, v, unit, samples)
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: ""}
}

func (r *report) line(name string, v float64, unit string, samples int) {
	fmt.Fprintf(r.cfg.out, "%-14s %-34s %16.6g %-6s n=%d\n", r.cfg.workload, name, v, unit, samples)
}

// digest prints a digest of the run's deterministic outputs.
func (r *report) digest(what string, sum uint64, items int) {
	fmt.Fprintf(r.cfg.out, "digest %s %s seed=%d items=%d %016x\n", r.cfg.workload, what, r.cfg.seed, items, sum)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name) // a bug in the benchmark itself
}

// result assembles the final JSON object, checking that the run reported
// exactly the metric set its mode promises. Per-layer metrics a workload
// bypasses are reported as 0.
func (r *report) result() (map[string]any, error) {
	defs := e2eMetrics
	if r.cfg.trace {
		defs = layerMetrics
	}
	out := map[string]metric{}
	var missing []string
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case ok:
			m.Unit = d.unit
		case r.cfg.trace:
			m = metric{Value: 0, Unit: d.unit}
			r.line(d.name, 0, d.unit, 0)
		default:
			missing = append(missing, d.name)
		}
		out[d.name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s reported no %v", r.cfg.workload, missing)
	}
	attempted := r.attempted.Load()
	if attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return map[string]any{
		"correct":   r.wrong.Load() == 0,
		"attempted": attempted,
		"failed":    r.failed.Load(),
		"metrics":   out,
	}, nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *report) error{
	"serve_warm":    runServe,
	"tune_campaign": runTuneCampaign,
	"referee":       runReferee,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "serve_warm|tune_campaign|referee")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 12, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: stdout}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d nproc=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	// A hard ceiling well inside the 180 s a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(3*cfg.seconds+60)*time.Second)
	defer cancel()
	r := newReport(cfg)
	if err := fn(ctx, r); err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res, err := r.result()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-14s %-34s %16d/%d wrong=%d\n", cfg.workload, "failed/attempted",
		res["failed"], res["attempted"], r.wrong.Load())
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}
