package ucgraph

import (
	"testing"
)

// communityTestGraph builds a small two-community graph with mixed edge
// probabilities: enough structure that different worlds differ.
func communityTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(12)
	add := func(u, v NodeID, p float64) {
		t.Helper()
		if err := b.AddEdge(u, v, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := NodeID(0); i < 5; i++ {
		for j := i + 1; j <= 5; j++ {
			add(i, j, 0.6)
		}
	}
	for i := NodeID(6); i < 11; i++ {
		for j := i + 1; j <= 11; j++ {
			add(i, j, 0.45)
		}
	}
	add(5, 6, 0.2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCrossConsumerWorldIdentity is the shared-substrate contract: the
// connection-probability estimator, the k-NN distance sampler and
// representative-world extraction must all observe the SAME world i for
// the same (seed, i), through the shared store — not three private
// resamplings that merely agree in distribution.
func TestCrossConsumerWorldIdentity(t *testing.T) {
	g := communityTestGraph(t)
	const seed = 1234
	const r = 160
	const src = NodeID(2)

	ws := Worlds(g, seed)
	est := NewEstimator(g, seed)
	if est.Store() != ws {
		t.Fatal("estimator answers from a different store than Worlds(g, seed)")
	}

	// Reference per-world connectivity-to-src, straight off the store.
	connected := make([][]bool, r)
	ws.Scan(0, r, func(i int, lab []int32) {
		row := make([]bool, len(lab))
		for u := range lab {
			row[u] = lab[u] == lab[src]
		}
		connected[i] = row
	})

	// 1. The estimator's tallies must equal exact counts over those worlds
	// (not statistically — exactly).
	probs := est.FromCenter(src, Unlimited, r)
	for u := 0; u < g.NumNodes(); u++ {
		cnt := 0
		for i := 0; i < r; i++ {
			if connected[i][u] {
				cnt++
			}
		}
		// Same float expression the estimator uses: count times 1/r.
		if want := float64(cnt) * (1 / float64(r)); probs[u] != want {
			t.Fatalf("estimator node %d: %v != exact store count %v", u, probs[u], want)
		}
	}

	// 2. The k-NN sampler's reachability must match the store's labels
	// world for world: reliability is an exact count over the same stream.
	dd := SampleDistances(g, src, seed, r)
	for u := 0; u < g.NumNodes(); u++ {
		cnt := 0
		for i := 0; i < r; i++ {
			if connected[i][u] {
				cnt++
			}
		}
		// Same float expression Reliability uses: 1 - unreachable/r.
		if want := 1 - float64(r-cnt)/float64(r); dd.Reliability(NodeID(u)) != want {
			t.Fatalf("knn node %d: reliability %v != store count %v",
				u, dd.Reliability(NodeID(u)), want)
		}
	}

	// 3. The sampled representative world must be an actual world of the
	// stream: its edge set must equal the implicit world at the returned
	// index, edge for edge.
	rep, idx, err := SampledRepresentativeWorld(g, seed, r)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx >= r {
		t.Fatalf("representative index %d outside sampled range [0, %d)", idx, r)
	}
	world := ws.World(idx)
	for id := int32(0); id < int32(g.NumEdges()); id++ {
		e := g.EdgeByID(id)
		_, inRep := rep.HasEdge(e.U, e.V)
		if inRep != world.Contains(id) {
			t.Fatalf("representative world edge {%d,%d}: materialized=%v stream=%v",
				e.U, e.V, inRep, world.Contains(id))
		}
	}

	// 4. Pairwise estimates and reliability metrics ride the same stream.
	pair := ConnectionProbability(g, 0, 11, seed, r)
	cnt := 0
	ws.Scan(0, r, func(i int, lab []int32) {
		if lab[0] == lab[11] {
			cnt++
		}
	})
	if want := float64(cnt) / r; pair != want {
		t.Fatalf("ConnectionProbability %v != exact store count %v", pair, want)
	}

	// Growing happened on one store: every consumer above shares it, so
	// the stream length reflects the max request, not the sum.
	if got := ws.Worlds(); got < r {
		t.Fatalf("shared store holds %d worlds, consumers requested %d", got, r)
	}
}

// TestWorldStoreBudgetPublicAPI smoke-tests the public memory-budget knobs:
// a budgeted store must return identical metric values.
func TestWorldStoreBudgetPublicAPI(t *testing.T) {
	g := communityTestGraph(t)
	const seed, r = 7, 300

	cl, _, err := MCP(g, 2, Options{Seed: 3, Schedule: Schedule{Min: 32, Max: 128, Coef: 8}})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := MinProb(g, cl, seed, r)
	wantInner, wantOuter := AVPR(g, cl, seed, r)

	// A second graph value gets its own store; bound it to one block.
	g2, err := FromEdges(g.NumNodes(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ws := Worlds(g2, seed)
	ws.SetBudget(ws.LabelBlockBytes())
	if got := MinProb(g2, cl, seed, r); got != wantMin {
		t.Fatalf("bounded MinProb %v != unbounded %v", got, wantMin)
	}
	gotInner, gotOuter := AVPR(g2, cl, seed, r)
	if gotInner != wantInner || gotOuter != wantOuter {
		t.Fatalf("bounded AVPR (%v, %v) != unbounded (%v, %v)",
			gotInner, gotOuter, wantInner, wantOuter)
	}
	if st := ws.Stats(); st.Evictions == 0 {
		t.Fatalf("budgeted store never evicted: %+v", st)
	}

	// The process-wide default budget knob applies to stores created later.
	SetWorldMemoryBudget(1 << 20)
	defer SetWorldMemoryBudget(0)
	g3, err := FromEdges(g.NumNodes(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	if got := MinProb(g3, cl, seed, r); got != wantMin {
		t.Fatalf("default-budget MinProb %v != unbounded %v", got, wantMin)
	}
}
