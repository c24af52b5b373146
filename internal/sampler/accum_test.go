package sampler

import (
	"testing"

	"ucgraph/internal/graph"
)

// The accumulate-mode contracts: the bit-sliced vertical counters and
// direct per-vector counting add the same per-world reach indicators, so
// their counts are bit-identical; the
// planes hold exactly AccumCapacity worlds between flushes and refuse
// more instead of overflowing silently.

// accumCounts runs W worlds of cs through accumulate mode (flushing on
// the counter's capacity cadence) and returns the folded counts.
func accumCounts(t *testing.T, mrc *MultiReachCounter, g *graph.Uncertain, seed uint64, cs []graph.NodeID, depth, worlds int) [][]int32 {
	t.Helper()
	if !mrc.BeginAccum() {
		t.Fatal("BeginAccum refused a tiny graph")
	}
	counts := make([][]int32, len(cs))
	for j := range counts {
		counts[j] = make([]int32, g.NumNodes())
	}
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	capacity := mrc.AccumCapacity()
	pending := 0
	for i := 0; i < worlds; i++ {
		w := World{G: g, Seed: seed, Index: uint64(i)}
		w.FillEdgeBitmap(bits)
		mrc.AccumWorld(bits, cs, depth)
		if pending++; pending == capacity {
			mrc.FlushAccum(counts)
			pending = 0
		}
	}
	if pending > 0 {
		mrc.FlushAccum(counts)
	}
	return counts
}

func TestAccumBitSlicedMatchesDirect(t *testing.T) {
	g := mustGraph(t, 9, []graph.Edge{
		{U: 0, V: 1, P: 0.5}, {U: 1, V: 2, P: 0.4}, {U: 2, V: 3, P: 0.6},
		{U: 3, V: 4, P: 0.7}, {U: 4, V: 5, P: 0.5}, {U: 5, V: 6, P: 0.3},
		{U: 6, V: 7, P: 0.5}, {U: 7, V: 8, P: 0.8}, {U: 8, V: 0, P: 0.4},
		{U: 1, V: 7, P: 0.6},
	})
	const seed, r = 31, 700 // > AccumCapacity, so the cadence flush runs
	cs := []graph.NodeID{0, 4, 7, 4}
	for _, depth := range []int{0, 1, 2, -1} {
		direct := make([][]int32, len(cs))
		for j := range direct {
			direct[j] = make([]int32, g.NumNodes())
		}
		mrc := NewMultiReachCounter(g)
		bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
		for i := 0; i < r; i++ {
			w := World{G: g, Seed: seed, Index: uint64(i)}
			w.FillEdgeBitmap(bits)
			mrc.CountWithinWorld(bits, cs, depth, direct)
		}

		sliced := accumCounts(t, NewMultiReachCounter(g), g, seed, cs, depth, r)

		for j := range cs {
			for u := range direct[j] {
				if sliced[j][u] != direct[j][u] {
					t.Fatalf("depth=%d center %d node %d: bit-sliced %d != direct %d",
						depth, j, u, sliced[j][u], direct[j][u])
				}
			}
		}
	}
}

// TestAccumCapacitySaturatesAllPlanes drives every counter to exactly
// AccumCapacity (255) on a certain-edge graph, exercising carry chains
// through all planes of the ripple-carry add.
func TestAccumCapacitySaturatesAllPlanes(t *testing.T) {
	g := pathGraph(t, 6, 1.0)
	mrc := NewMultiReachCounter(g)
	if !mrc.BeginAccum() {
		t.Fatal("BeginAccum refused a tiny graph")
	}
	cs := []graph.NodeID{0, 3}
	capacity := mrc.AccumCapacity()
	if capacity != 255 {
		t.Fatalf("bit-sliced AccumCapacity = %d, want 255", capacity)
	}
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	for i := 0; i < capacity; i++ {
		w := World{G: g, Seed: 1, Index: uint64(i)}
		w.FillEdgeBitmap(bits)
		mrc.AccumWorld(bits, cs, -1)
	}
	counts := [][]int32{make([]int32, g.NumNodes()), make([]int32, g.NumNodes())}
	mrc.FlushAccum(counts)
	for j := range cs {
		for u := 0; u < g.NumNodes(); u++ {
			if counts[j][u] != int32(capacity) {
				t.Fatalf("center %d node %d: count %d, want %d (all edges certain)",
					j, u, counts[j][u], capacity)
			}
		}
	}

	// One world past capacity without a flush must panic, not wrap.
	w := World{G: g, Seed: 1, Index: uint64(capacity)}
	w.FillEdgeBitmap(bits)
	mrc.AccumWorld(bits, cs, -1) // fine: the flush reset the cadence
	for i := 1; i < capacity; i++ {
		wi := World{G: g, Seed: 1, Index: uint64(capacity + i)}
		wi.FillEdgeBitmap(bits)
		mrc.AccumWorld(bits, cs, -1)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AccumWorld past AccumCapacity did not panic")
		}
	}()
	mrc.AccumWorld(bits, cs, -1)
}

// TestAccumFlushResetsPlanes: a flush zeroes the accumulator, so a second
// accumulate round starts from scratch instead of inheriting counts.
func TestAccumFlushResetsPlanes(t *testing.T) {
	g := pathGraph(t, 5, 1.0)
	mrc := NewMultiReachCounter(g)
	if !mrc.BeginAccum() {
		t.Fatal("BeginAccum refused")
	}
	cs := []graph.NodeID{0}
	bits := make([]uint64, EdgeBitmapWords(g.NumEdges()))
	(World{G: g, Seed: 2, Index: 0}).FillEdgeBitmap(bits)

	first := [][]int32{make([]int32, g.NumNodes())}
	mrc.AccumWorld(bits, cs, -1)
	mrc.FlushAccum(first)

	second := [][]int32{make([]int32, g.NumNodes())}
	mrc.AccumWorld(bits, cs, -1)
	mrc.FlushAccum(second)
	for u := range first[0] {
		if first[0][u] != 1 || second[0][u] != 1 {
			t.Fatalf("node %d: rounds %d/%d, want 1/1 (flush must reset)", u, first[0][u], second[0][u])
		}
	}
}
