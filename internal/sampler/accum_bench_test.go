package sampler

import (
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// The accumulate-kernel benchmarks behind BENCH_store.json (make
// bench-store): one world's 64-center depth-limited reach folded into the
// bit-sliced vertical planes.

// benchAccumGraph builds a ring-with-chords graph sized so the BFS
// touches a realistic spread of nodes per world.
func benchAccumGraph(b *testing.B, n int) *graph.Uncertain {
	b.Helper()
	x := rng.NewXoshiro256(99)
	gb := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := gb.AddEdge(int32(i), int32((i+1)%n), 0.3+0.6*x.Float64()); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = gb.AddEdge(u, v, 0.2+0.7*x.Float64())
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchmarkAccum(b *testing.B, depth int) {
	const n, centers = 30000, 64
	g := benchAccumGraph(b, n)
	mrc := NewMultiReachCounter(g)
	if !mrc.BeginAccum() {
		b.Fatal("BeginAccum refused the bench graph")
	}
	cs := make([]graph.NodeID, centers)
	x := rng.NewXoshiro256(7)
	for j := range cs {
		cs[j] = graph.NodeID(x.Intn(n))
	}
	counts := make([][]int32, centers)
	for j := range counts {
		counts[j] = make([]int32, n)
	}
	// A small rotation of pre-filled world bitmaps keeps the benchmark on
	// the accumulate kernel instead of the edge-coin hashing.
	const worlds = 8
	bitmaps := make([][]uint64, worlds)
	for i := range bitmaps {
		bitmaps[i] = make([]uint64, EdgeBitmapWords(g.NumEdges()))
		(World{G: g, Seed: 17, Index: uint64(i)}).FillEdgeBitmap(bitmaps[i])
	}
	capacity := mrc.AccumCapacity()
	pending := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mrc.AccumWorld(bitmaps[i%worlds], cs, depth)
		if pending++; pending == capacity {
			mrc.FlushAccum(counts)
			pending = 0
		}
	}
	if pending > 0 {
		mrc.FlushAccum(counts)
	}
}

// Full reach (depth -1) is the paper's primary estimator — per-world
// connected components, where a reached node's mask averages dozens of set
// centers and the bit-sliced kernel folds them in one ripple-carry add.
// Depth2 is the sparsest depth-limited probe: masks are mostly one bit.
func BenchmarkAccumBitSlicedFull(b *testing.B)   { benchmarkAccum(b, -1) }
func BenchmarkAccumBitSlicedDepth2(b *testing.B) { benchmarkAccum(b, 2) }
