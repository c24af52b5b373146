package conn

import (
	"math"
	"testing"

	"ucgraph/internal/graph"
)

func TestCacheExtendsMatchesFresh(t *testing.T) {
	// Querying a center at r=100 then r=400 must give exactly the same
	// estimate as a fresh estimator queried once at r=400 (same worlds).
	g := pathGraph(t, 12, 0.5)
	a := NewMonteCarlo(g, 99)
	a.FromCenter(3, Unlimited, 100)
	got := a.FromCenter(3, Unlimited, 400)

	b := NewMonteCarlo(g, 99)
	want := b.FromCenter(3, Unlimited, 400)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: incremental %v != fresh %v", u, got[u], want[u])
		}
	}
}

func TestCacheShrinkingRUsesHigherPrecision(t *testing.T) {
	// After querying at r=1000, a query at r=10 returns the r=1000
	// estimate (documented behaviour: never discard precision).
	g := pathGraph(t, 5, 0.5)
	mc := NewMonteCarlo(g, 7)
	big := mc.FromCenter(0, Unlimited, 1000)
	small := mc.FromCenter(0, Unlimited, 10)
	for u := range big {
		if big[u] != small[u] {
			t.Fatalf("node %d: r=10 after r=1000 gave %v, want %v", u, small[u], big[u])
		}
	}
}

func TestCacheDepthsAreSeparate(t *testing.T) {
	// Depth-limited and unlimited tallies must not mix.
	g := pathGraph(t, 6, 0.9)
	mc := NewMonteCarlo(g, 5)
	unlimited := mc.FromCenter(0, Unlimited, 2000)
	depth1 := mc.FromCenter(0, 1, 2000)
	// Node 2 is 2 hops away: reachable in unlimited worlds, never at d=1.
	if depth1[2] != 0 {
		t.Fatalf("depth-1 estimate for a 2-hop node = %v, want 0", depth1[2])
	}
	if unlimited[2] < 0.5 {
		t.Fatalf("unlimited estimate for node 2 = %v, want ~0.81", unlimited[2])
	}
	// Re-query unlimited: must be unchanged by the depth-1 query.
	again := mc.FromCenter(0, Unlimited, 2000)
	for u := range unlimited {
		if unlimited[u] != again[u] {
			t.Fatal("depth-limited query polluted the unlimited tally")
		}
	}
}

func TestCacheEviction(t *testing.T) {
	// Force a tiny cache and query more centers than it holds: results
	// must stay correct (evicted entries are recomputed).
	g := pathGraph(t, 50, 0.8)
	mc := NewMonteCarlo(g, 13)
	mc.maxCache = 4
	const r = 500
	want := make(map[graph.NodeID]float64)
	for c := graph.NodeID(0); c < 20; c++ {
		est := mc.FromCenter(c, Unlimited, r)
		want[c] = est[(int(c)+1)%50]
	}
	if len(mc.cache) > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", len(mc.cache))
	}
	// Re-query everything: estimates are deterministic per (seed, world
	// range), so evicted-and-recomputed entries must agree.
	for c := graph.NodeID(0); c < 20; c++ {
		est := mc.FromCenter(c, Unlimited, r)
		if est[(int(c)+1)%50] != want[c] {
			t.Fatalf("center %d: recomputed estimate differs after eviction", c)
		}
	}
}

func TestCacheEvictionRingFIFO(t *testing.T) {
	// White-box regression for the eviction-order leak: the FIFO order is
	// a fixed-capacity ring, so its backing array must stop growing once
	// the cache is full, evictions must drop the oldest key, and the head
	// must wrap. (The old implementation re-sliced the front off, keeping
	// every evicted key reachable through the backing array.)
	g := pathGraph(t, 16, 0.8)
	mc := NewMonteCarlo(g, 3)
	mc.maxCache = 4
	for c := graph.NodeID(0); c < 11; c++ { // 2+ full wraps of the ring
		mc.FromCenter(c, Unlimited, 10)
		if got := len(mc.cacheOrder); got > 4 {
			t.Fatalf("after %d inserts the ring grew to %d slots, cap is 4", c+1, got)
		}
		if len(mc.cache) != len(mc.cacheOrder) {
			t.Fatalf("cache (%d) and ring (%d) disagree on live entries",
				len(mc.cache), len(mc.cacheOrder))
		}
	}
	// FIFO: exactly the four newest centers survive.
	for c := graph.NodeID(0); c < 11; c++ {
		_, ok := mc.cache[cacheKey{c: c, depth: Unlimited}]
		if want := c >= 7; ok != want {
			t.Fatalf("center %d cached=%v, want %v", c, ok, want)
		}
	}
	if mc.cacheHead >= len(mc.cacheOrder) {
		t.Fatalf("cacheHead %d out of ring bounds %d", mc.cacheHead, len(mc.cacheOrder))
	}
}

func TestCacheDepthExtension(t *testing.T) {
	// Depth-limited tallies also extend incrementally and match a fresh
	// estimator.
	g := pathGraph(t, 8, 0.6)
	a := NewMonteCarlo(g, 21)
	a.FromCenter(0, 2, 300)
	got := a.FromCenter(0, 2, 900)
	b := NewMonteCarlo(g, 21)
	want := b.FromCenter(0, 2, 900)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: incremental depth tally %v != fresh %v", u, got[u], want[u])
		}
	}
	// Estimates approximate p^d products on the path.
	for u, wantP := range []float64{1, 0.6, 0.36, 0, 0} {
		sigma := math.Sqrt(wantP*(1-wantP)/900) + 1e-9
		if math.Abs(got[u]-wantP) > 6*sigma {
			t.Fatalf("node %d: depth-2 estimate %v, want ~%v", u, got[u], wantP)
		}
	}
}

// TestRecycleReusesVectorsExactly: a recycled estimate vector is reused by
// the next answer, which is still bit-identical to a fresh estimator's;
// vectors of the wrong length are not taken.
func TestRecycleReusesVectorsExactly(t *testing.T) {
	g := gridGraph(t, 6, 5, 0.6)
	mc := NewMonteCarlo(g, 41)
	fresh := NewMonteCarlo(g, 41)

	first := mc.FromCenter(4, Unlimited, 300)
	mc.Recycle(first)
	mc.Recycle(make([]float64, g.NumNodes()+1)) // wrong length: ignored
	got := mc.FromCenters([]graph.NodeID{17, 17}, Unlimited, 500)
	if &got[0][0] != &first[0] {
		t.Fatal("the recycled vector was not reused")
	}
	want := fresh.FromCenters([]graph.NodeID{17, 17}, Unlimited, 500)
	for j := range want {
		if len(got[j]) != g.NumNodes() {
			t.Fatalf("answer %d has length %d", j, len(got[j]))
		}
		for u := range want[j] {
			if math.Float64bits(got[j][u]) != math.Float64bits(want[j][u]) {
				t.Fatalf("answer %d node %d: %v, fresh estimator %v", j, u, got[j][u], want[j][u])
			}
		}
	}
}
