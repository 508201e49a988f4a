package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuNow returns the CPU time the process has used so far, user and
// system, over all its threads. Timing work by it instead of by the wall
// clock leaves out the time the host took the machine's vCPUs away — on a
// shared VM the largest part of the run-to-run spread — and still charges
// the program's garbage collection, which runs on its own threads.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeEach runs fn n times and returns the median duration in µs.
func timeEach(n int, fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn(i)
		ds[i] = us(time.Since(t0))
	}
	return median(ds)
}

// runtimeCounters reads the cumulative allocation and GC counters.
type runtimeCounters struct{ allocBytes, gcCycles uint64 }

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// perOp reports the allocation and GC deltas since before, per operation.
func (r *report) perOp(before runtimeCounters, ops int) {
	if ops < 1 {
		return
	}
	after := readRuntime()
	r.layer("runtime.alloc_bytes_per_op", float64(after.allocBytes-before.allocBytes)/float64(ops), ops)
	r.layer("runtime.gc_cycles_per_op", float64(after.gcCycles-before.gcCycles)/float64(ops), ops)
}

// heapSampler samples the live heap — the bytes the last collection marked
// reachable — every few milliseconds while the measured phase runs, and
// reports the median sample. Live bytes, unlike all heap objects, do not
// count garbage a collection has yet to free, and the median, unlike the
// peak, does not turn on what a single collection found in flight, so the
// figure moves with what the program keeps, not with when it collects.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and reports the median in MB.
func (h *heapSampler) finish(r *report) {
	close(h.stop)
	<-h.done
	r.e2e("heap_live_mb", median(h.samples)/(1<<20), len(h.samples))
}

// setupTimes reports the median of repeated set-up timings as setup_s.
func (r *report) setupTimes(ds []time.Duration) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	r.e2e("setup_s", median(xs), len(xs))
}

// windowRate splits a sequence of operations (each with its CPU time and
// the work it did) into about windows consecutive chunks of equal CPU time
// and returns the median of the chunks' work rates: a slow stretch of the
// host moves one chunk, not the result.
func windowRate(durs []time.Duration, work []int, windows int) float64 {
	var total time.Duration
	for _, d := range durs {
		total += d
	}
	var rates []float64
	var busy time.Duration
	done := 0
	for i, d := range durs {
		busy += d
		done += work[i]
		if busy >= total/time.Duration(windows) || i == len(durs)-1 {
			rates = append(rates, float64(done)/busy.Seconds())
			busy, done = 0, 0
		}
	}
	return median(rates)
}
