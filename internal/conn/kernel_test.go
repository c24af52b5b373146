package conn

import (
	"reflect"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// kernelTestGraph builds a 128-node ring with pseudo-random chords — large
// enough that a depth-limited batch exercises real BFS frontiers, small
// enough that the accumulate kernel qualifies.
func kernelTestGraph(t *testing.T) *graph.Uncertain {
	t.Helper()
	const n = 128
	x := rng.NewXoshiro256(41)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.25+0.7*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.2+0.6*x.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDepthLimitedBatchKernelBitIdentity pins the bit-sliced accumulate
// kernel, reached through the full production path — MonteCarlo.FromCenters
// → worldstore.CountWithinMulti → the accumulate mode of
// sampler.MultiReachCounter — against direct per-world counting
// (MultiReachCounter.CountWithinWorld, the fallback for graphs too large
// for the accumulator) over the same world bitmaps. 70 centers span two
// 64-center mask groups, and 600 worlds force multiple AccumCapacity
// flushes, so every ripple-carry plane level and the flush cadence are
// both exercised. Both paths add the same per-world reach indicators, so
// the estimates must be bit-identical — not merely close.
func TestDepthLimitedBatchKernelBitIdentity(t *testing.T) {
	g := kernelTestGraph(t)
	cs := make([]graph.NodeID, 70)
	for i := range cs {
		cs[i] = graph.NodeID((i * 13) % g.NumNodes())
	}
	const depth, r = 3, 600

	mc := NewMonteCarlo(g, 97)
	sliced := mc.FromCenters(cs, depth, r)

	direct := make([][]int32, len(cs))
	for j := range direct {
		direct[j] = make([]int32, g.NumNodes())
	}
	mrc := sampler.NewMultiReachCounter(g)
	mc.Store().ScanBits(0, r, func(_ int, bits []uint64) {
		mrc.CountWithinWorld(bits, cs, depth, direct)
	})
	want := make([][]float64, len(cs))
	inv := 1 / float64(r)
	for j, counts := range direct {
		want[j] = make([]float64, len(counts))
		for v, cnt := range counts {
			want[j][v] = float64(cnt) * inv
		}
	}

	if !reflect.DeepEqual(sliced, want) {
		for j := range sliced {
			for v := range sliced[j] {
				if sliced[j][v] != want[j][v] {
					t.Fatalf("kernel mismatch at center %d node %d: bit-sliced %v, direct %v",
						cs[j], v, sliced[j][v], want[j][v])
				}
			}
		}
		t.Fatal("kernel outputs differ in shape")
	}
	// Guard against a vacuously green test: the batch must produce real
	// probability mass away from the centers themselves.
	mass := 0.0
	for _, est := range sliced {
		for _, p := range est {
			mass += p
		}
	}
	if mass <= float64(len(cs)) {
		t.Fatalf("implausibly small probability mass %v for %d centers", mass, len(cs))
	}
}
