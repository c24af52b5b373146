package main

import (
	"context"
	"math"
	"slices"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/worldstore"
)

// tracer is the timing decorator handed to core.MCPCtx/ACPCtx in a traced
// op. It implements conn.ContextOracle by forwarding to the real estimator
// and records, from outside, how long each call took, which centers it
// asked for and which world ranges the estimator had to tally anew. The
// estimator's answers pass through untouched.
//
// core calls its oracle from one goroutine, so calls never overlap; the
// gaps between calls are core's own time.
type tracer struct {
	inner conn.ContextOracle
	store *worldstore.Store

	opStart  time.Time
	lastEnd  time.Time
	self     time.Duration // gaps between calls: core's own time
	busy     time.Duration // time inside the oracle
	calls    int
	centers  int
	requests int // worlds asked for, summed over centers
	fresh    int // worlds beyond the highest r already seen per key
	seen     map[tallyKey]int
	log      []scanCall
	// probe is the first tally the op extended; answer is the estimator's
	// last answer for it. The replay re-derives that tally from the log
	// and must reproduce the answer bit for bit.
	probe  tallyKey
	answer []float64
}

type tallyKey struct {
	c     graph.NodeID
	depth int
}

// scanCall is one recorded tally extension: the centers whose tallies had
// to grow, the world each started from, and the depth.
type scanCall struct {
	cs    []graph.NodeID
	lo    []int
	hi    int
	depth int
}

func newTracer(inner conn.ContextOracle, store *worldstore.Store) *tracer {
	return &tracer{inner: inner, store: store, seen: map[tallyKey]int{}}
}

// start marks the beginning of the op the tracer decorates.
func (t *tracer) start() {
	t.opStart = time.Now()
	t.lastEnd = t.opStart
}

// finish closes the op at its end time: the gap after the last call is
// core's too.
func (t *tracer) finish(end time.Time) {
	t.self += end.Sub(t.lastEnd)
}

func (t *tracer) NumNodes() int { return t.inner.NumNodes() }

func (t *tracer) FromCenter(c graph.NodeID, depth int, r int) []float64 {
	out, _ := t.FromCenterCtx(context.Background(), c, depth, r)
	return out
}

func (t *tracer) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	out, _ := t.FromCentersCtx(context.Background(), cs, depth, r)
	return out
}

func (t *tracer) FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error) {
	t0 := t.enter([]graph.NodeID{c}, depth, r)
	out, err := t.inner.FromCenterCtx(ctx, c, depth, r)
	t.exit(t0)
	if err == nil {
		t.keep([]graph.NodeID{c}, depth, [][]float64{out})
	}
	return out, err
}

func (t *tracer) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	t0 := t.enter(cs, depth, r)
	out, err := t.inner.FromCentersCtx(ctx, cs, depth, r)
	t.exit(t0)
	if err == nil {
		t.keep(cs, depth, out)
	}
	return out, err
}

// keep holds on to the answer for the probe tally, if the call asked for it.
func (t *tracer) keep(cs []graph.NodeID, depth int, out [][]float64) {
	if depth < 0 {
		depth = conn.Unlimited
	}
	for i, c := range cs {
		if (tallyKey{c, depth}) == t.probe && len(t.log) > 0 {
			t.answer = out[i]
		}
	}
}

// enter records the call's request and the tally extensions it implies,
// mirroring the estimator's contract: a (center, depth) tally grows only
// when r exceeds the worlds it already covers.
func (t *tracer) enter(cs []graph.NodeID, depth, r int) time.Time {
	now := time.Now()
	t.self += now.Sub(t.lastEnd)
	if r < 1 {
		r = 1
	}
	if depth < 0 {
		depth = conn.Unlimited
	}
	t.calls++
	call := scanCall{hi: r, depth: depth}
	for i, c := range cs {
		if slices.Contains(cs[:i], c) {
			continue
		}
		t.centers++
		t.requests += r
		k := tallyKey{c, depth}
		if prev := t.seen[k]; r > prev {
			t.fresh += r - prev
			t.seen[k] = r
			call.cs = append(call.cs, c)
			call.lo = append(call.lo, prev)
		}
	}
	if len(call.cs) > 0 {
		if len(t.log) == 0 {
			t.probe = tallyKey{call.cs[0], depth}
		}
		t.log = append(t.log, call)
	}
	return time.Now()
}

func (t *tracer) exit(t0 time.Time) {
	t.lastEnd = time.Now()
	t.busy += t.lastEnd.Sub(t0)
}

// replayTimes is the time the recorded tally extensions take when replayed
// serially through the store's public entry points.
type replayTimes struct {
	scan time.Duration // CountConnectedFrom(Multi), CountWithinMulti
	// faithful reports that the probe tally, summed over its replayed
	// extensions, gives the estimator's answer bit for bit: the replay
	// timed the work the estimator did.
	faithful bool
}

// replay runs every recorded extension again on the same store and times
// it. It does not touch the estimator, so nothing it does is cached for a
// later op.
func (t *tracer) replay(g *graph.Uncertain) replayTimes {
	var rt replayTimes
	n := g.NumNodes()
	probe := make([]int32, n)
	for _, call := range t.log {
		counts := make([][]int32, len(call.cs))
		for i := range counts {
			counts[i] = make([]int32, n)
		}
		t0 := time.Now()
		switch {
		case call.depth < 0 && len(call.cs) == 1:
			t.store.CountConnectedFrom(call.cs[0], call.lo[0], call.hi, counts[0])
		case call.depth < 0:
			t.store.CountConnectedFromMulti(call.cs, call.lo, call.hi, counts)
		default:
			t.store.CountWithinMulti(call.cs, call.depth, call.lo, call.hi, counts)
		}
		rt.scan += time.Since(t0)
		for i, c := range call.cs {
			if (tallyKey{c, call.depth}) == t.probe {
				for u, v := range counts[i] {
					probe[u] += v
				}
			}
		}
	}
	rt.faithful = len(t.answer) == n
	inv := 1 / float64(t.seen[t.probe])
	for u := 0; rt.faithful && u < n; u++ {
		rt.faithful = math.Float64bits(float64(probe[u])*inv) == math.Float64bits(t.answer[u])
	}
	return rt
}
