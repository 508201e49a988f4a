package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval: a call into a layer, made by the benchmark.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while it is on. A nil tracer, or one that is
// off, records nothing, so untraced phases pay one branch per call site.
type tracer struct {
	on    atomic.Bool
	next  atomic.Uint64
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type spanKey struct{}

// active is a started span; a zero value (tracing off) ends as a no-op.
type active struct {
	t *tracer
	s span
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin starts a span named name under the span carried by ctx.
func (t *tracer) begin(ctx context.Context, name, route string) (context.Context, active) {
	if !t.enabled() {
		return ctx, active{}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	return t.beginWithParent(ctx, name, route, parent)
}

// beginAt starts a root span that began at start (a request's due time).
func (t *tracer) beginAt(ctx context.Context, name string, start time.Time) (context.Context, active) {
	if !t.enabled() {
		return ctx, active{}
	}
	ctx, a := t.beginWithParent(ctx, name, "", 0)
	a.s.Start = int64(start.Sub(t.base))
	return ctx, a
}

func (t *tracer) beginWithParent(ctx context.Context, name, route string, parent uint64) (context.Context, active) {
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Route: route, Start: int64(time.Since(t.base))}
	return context.WithValue(ctx, spanKey{}, s.ID), active{t: t, s: s}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = int64(time.Since(a.t.base))
	a.t.add(a.s)
}

// interval records a span with explicit bounds.
func (t *tracer) interval(ctx context.Context, name string, start, end time.Time) {
	if !t.enabled() {
		return
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	t.add(span{ID: t.next.Add(1), Parent: parent, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// The engine.Observer seam: cold solves become child spans of the span that
// caused them. Cache traffic is read from Engine.CacheStats instead.

func (t *tracer) ColdSolve(ctx context.Context, _ string, d time.Duration) {
	now := time.Now()
	t.interval(ctx, "cold_solve", now.Add(-d), now)
}
func (t *tracer) CacheHit(context.Context, int)     {}
func (t *tracer) CacheMiss(context.Context, int)    {}
func (t *tracer) SharedSolve(context.Context)       {}
func (t *tracer) SessionReuse(context.Context, int) {}

// spanHeader carries the client-side span ID to the server middleware.
const spanHeader = "X-Perfbench-Span"

// transport wraps the client's RoundTripper: the span covers the request
// write through the last byte of the response body.
type transport struct {
	t    *tracer
	next http.RoundTripper
}

func (tr transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tr.t.enabled() {
		return tr.next.RoundTrip(req)
	}
	ctx, sp := tr.t.begin(req.Context(), "onocd_transport", routeOf(req.URL.Path))
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatUint(sp.s.ID, 10))
	resp, err := tr.next.RoundTrip(req)
	if err != nil {
		sp.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span at EOF or Close, whichever comes first.
type spanBody struct {
	io.ReadCloser
	sp   active
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.sp.end)
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.once.Do(b.sp.end)
	return b.ReadCloser.Close()
}

// middleware records the server-side span of each request, parented to the
// client's transport span named by the request header.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h := req.Header.Get(spanHeader)
		if h == "" || !t.enabled() {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(h, 10, 64)
		_, sp := t.beginWithParent(req.Context(), "onocd_server", routeOf(req.URL.Path), parent)
		next.ServeHTTP(w, req)
		sp.end()
	})
}

func routeOf(path string) string {
	switch path {
	case "/v1/sweep":
		return "sweep"
	case "/v1/noc/eval":
		return "noc_eval"
	case "/v1/noc/batch":
		return "noc_batch"
	}
	return ""
}

// selfTimes returns each span name's total self time: its duration minus
// the part of its interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// finish reports every layer's self time per operation and writes the spans
// to .bench_build/ as JSON lines.
func (t *tracer) finish(r *report, ops int) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	self := selfTimes(spans)
	for _, l := range layerNames {
		if ops > 0 {
			r.layer("self_us."+l, us(self[l])/float64(ops), ops)
		}
	}
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.jsonl", r.cfg.workload, r.cfg.seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(r.cfg.out, "trace: %d spans written to %s\n", len(spans), name)
	return nil
}

// scrapeMetrics reads a daemon's /metrics page into a map from series name
// (labels dropped, values summed) to value.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		out[name] += v
	}
	return out, sc.Err()
}
