package conn

import (
	"sync"
	"testing"

	"ucgraph/internal/graph"
	"ucgraph/internal/worldstore"
)

// TestFromCentersMatchesFromCenter is the batched-query contract: for any
// depth and mixed tally states, FromCenters must return exactly what a
// serial FromCenter loop returns.
func TestFromCentersMatchesFromCenter(t *testing.T) {
	g := gridGraph(t, 9, 7, 0.55)
	const seed = 31
	for _, depth := range []int{Unlimited, 2} {
		batched := NewMonteCarlo(g, seed)
		serial := NewMonteCarlo(g, seed)
		serial.SetParallelism(1)

		// Pre-warm some tallies at different precisions so the batch mixes
		// fresh centers, partially covered ones, and over-covered ones.
		batched.FromCenter(3, depth, 40)
		batched.FromCenter(10, depth, 500)

		cs := []graph.NodeID{0, 3, 7, 10, 3, 21, 45} // includes a duplicate
		const r = 300
		got := batched.FromCenters(cs, depth, r)
		if len(got) != len(cs) {
			t.Fatalf("depth=%d: got %d vectors for %d centers", depth, len(got), len(cs))
		}
		for j, c := range cs {
			want := serial.FromCenter(c, depth, r)
			// Center 10 was pre-warmed past r; the batch serves the
			// higher precision, like FromCenter does.
			if c == 10 {
				want = serial.FromCenter(c, depth, 500)
			}
			if c == 3 {
				// Pre-warmed below r: must have been extended to exactly r.
				want = serial.FromCenter(c, depth, r)
			}
			for u := range want {
				if got[j][u] != want[u] {
					t.Fatalf("depth=%d center %d node %d: batched %v != serial %v",
						depth, c, u, got[j][u], want[u])
				}
			}
		}
		// Duplicate centers must get equal (but independent) vectors.
		if &got[1][0] == &got[4][0] {
			t.Fatal("duplicate centers share one output slice")
		}
		for u := range got[1] {
			if got[1][u] != got[4][u] {
				t.Fatalf("duplicate center answers differ at node %d", u)
			}
		}
	}
}

// TestFromCentersDeterministicAcrossWorkers pins the determinism guarantee
// for the batched path: worker count must not leak into estimates.
func TestFromCentersDeterministicAcrossWorkers(t *testing.T) {
	g := gridGraph(t, 11, 9, 0.6)
	const seed = 5
	cs := make([]graph.NodeID, 24)
	for i := range cs {
		cs[i] = graph.NodeID(i * 4)
	}
	ref := NewMonteCarlo(g, seed)
	ref.SetParallelism(1)
	want := ref.FromCenters(cs, Unlimited, 400)
	for _, workers := range []int{2, 4, 16} {
		mc := NewMonteCarlo(g, seed)
		mc.SetParallelism(workers)
		mc.FromCenters(cs[:8], Unlimited, 64) // prime a prefix, then extend
		got := mc.FromCenters(cs, Unlimited, 400)
		for j := range want {
			for u := range want[j] {
				if got[j][u] != want[j][u] {
					t.Fatalf("workers=%d center %d node %d: %v != serial %v",
						workers, cs[j], u, got[j][u], want[j][u])
				}
			}
		}
	}
}

// TestFromCentersConcurrentBatches hammers one estimator with overlapping
// concurrent batches; every answer must match a serial oracle. Under -race
// this doubles as the deadlock/data-race probe for the multi-tally locking.
func TestFromCentersConcurrentBatches(t *testing.T) {
	g := gridGraph(t, 8, 8, 0.5)
	const seed = 77
	mc := NewMonteCarlo(g, seed)
	batches := [][]graph.NodeID{
		{0, 5, 9, 13},
		{13, 9, 5, 0}, // same set, reversed: exercises the canonical lock order
		{2, 5, 30},
		{9, 40, 41, 42, 43},
	}
	const r = 250
	var wg sync.WaitGroup
	results := make([][][]float64, len(batches)*4)
	for rep := 0; rep < 4; rep++ {
		for bi, cs := range batches {
			wg.Add(1)
			go func(slot int, cs []graph.NodeID) {
				defer wg.Done()
				results[slot] = mc.FromCenters(cs, Unlimited, r)
			}(rep*len(batches)+bi, cs)
		}
	}
	wg.Wait()
	serial := NewMonteCarlo(g, seed)
	serial.SetParallelism(1)
	for rep := 0; rep < 4; rep++ {
		for bi, cs := range batches {
			got := results[rep*len(batches)+bi]
			for j, c := range cs {
				want := serial.FromCenter(c, Unlimited, r)
				for u := range want {
					if got[j][u] != want[u] {
						t.Fatalf("batch %d center %d node %d: %v != %v", bi, c, u, got[j][u], want[u])
					}
				}
			}
		}
	}
}

// identicalGraph builds a second, distinct graph value with the same edges,
// so the registry hands out an independent world store for the same seed.
func identicalGraph(t *testing.T, g *graph.Uncertain) *graph.Uncertain {
	t.Helper()
	g2, err := graph.FromEdges(g.NumNodes(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return g2
}

// TestEstimatorBoundedMemoryBitIdentical runs the same queries against an
// estimator whose world store is squeezed to a single resident label block
// and against an unbounded one: the estimates must be bit-identical, with
// the bounded store visibly evicting and recomputing along the way.
func TestEstimatorBoundedMemoryBitIdentical(t *testing.T) {
	g := gridGraph(t, 10, 8, 0.55)
	const seed = 19
	unbounded := NewMonteCarlo(g, seed)

	g2 := identicalGraph(t, g)
	bounded := NewMonteCarlo(g2, seed)
	bounded.Store().SetBudget(bounded.Store().LabelBlockBytes()) // one block resident at a time

	const r = 700 // several blocks worth of worlds
	cs := []graph.NodeID{0, 17, 33, 60}
	wantBatch := unbounded.FromCenters(cs, Unlimited, r)
	gotBatch := bounded.FromCenters(cs, Unlimited, r)
	for j := range cs {
		for u := range wantBatch[j] {
			if gotBatch[j][u] != wantBatch[j][u] {
				t.Fatalf("center %d node %d: bounded %v != unbounded %v",
					cs[j], u, gotBatch[j][u], wantBatch[j][u])
			}
		}
	}
	// Re-query a fresh center after churn: forces recompute of evicted
	// blocks from world 0.
	want := unbounded.FromCenter(41, Unlimited, r)
	got := bounded.FromCenter(41, Unlimited, r)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d after eviction churn: %v != %v", u, got[u], want[u])
		}
	}
	if st := bounded.Store().Stats(); st.Evictions == 0 {
		t.Fatalf("bounded store never evicted (stats %+v)", st)
	}
	if p := bounded.Pair(0, 79, r); p != unbounded.Pair(0, 79, r) {
		t.Fatal("Pair differs between bounded and unbounded stores")
	}
}

// TestSharedStoreAcrossEstimators verifies that two estimators over the
// same (graph, seed) answer from one store — the world dedup the shared
// substrate exists for.
func TestSharedStoreAcrossEstimators(t *testing.T) {
	g := gridGraph(t, 6, 6, 0.5)
	a := NewMonteCarlo(g, 9)
	b := NewMonteCarlo(g, 9)
	if a.Store() != b.Store() {
		t.Fatal("two estimators over one (graph, seed) got different stores")
	}
	if a.Store() == NewMonteCarlo(g, 10).Store() {
		t.Fatal("different seeds share a store")
	}
	a.FromCenter(0, Unlimited, 200)
	if got := b.WorldsMaterialized(); got < 200 {
		t.Fatalf("second estimator sees %d worlds after first grew 200", got)
	}
	if worldstore.Shared(g, 9) != a.Store() {
		t.Fatal("worldstore.Shared disagrees with the estimator's store")
	}
}
