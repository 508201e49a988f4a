package engine

import (
	"sync"

	"photonoc/internal/core"
)

// flightCall is one in-flight cold solve: the leader runs the solve and
// publishes the outcome; followers block on done and share it.
type flightCall struct {
	done chan struct{}
	ev   core.Evaluation
	err  error
	// dups counts the followers attached to the flight, under the group
	// mutex (singleflight's dups).
	dups int
}

// flightGroup coalesces concurrent cold solves of one cache key
// (singleflight): under a stampede of identical queries exactly one
// goroutine runs the compiled pipeline and every other participant waits
// for — and shares — its result. Distinct keys never block one another.
type flightGroup struct {
	mu sync.Mutex
	m  map[cacheKey]*flightCall
}

// do executes fn under the key's flight. The first caller for a key becomes
// the leader and runs fn; callers arriving while the flight is open block
// until the leader finishes and receive its outcome with shared == true.
// The flight closes when fn returns, so later calls start a fresh one (the
// cache, not the flight group, provides long-term memoization).
func (g *flightGroup) do(k cacheKey, fn func() (core.Evaluation, error)) (ev core.Evaluation, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[k]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.ev, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	if g.m == nil {
		g.m = make(map[cacheKey]*flightCall)
	}
	g.m[k] = c
	g.mu.Unlock()

	c.ev, c.err = fn()

	// Unregister before releasing the followers: a goroutine that misses
	// the (already populated) cache after this point starts a new flight
	// whose leader re-checks the cache instead of re-solving.
	g.mu.Lock()
	delete(g.m, k)
	g.mu.Unlock()
	close(c.done)
	return c.ev, false, c.err
}
