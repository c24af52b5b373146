package core

import (
	"testing"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// communityGraph builds c dense communities of size s joined by weak
// bridges — enough structure that MCP/ACP make nontrivial choices.
func communityGraph(t *testing.T, c, s int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(c * s)
	for ci := 0; ci < c; ci++ {
		base := int32(ci * s)
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				if x.Float64() < 0.5 {
					if err := b.AddEdge(base+int32(i), base+int32(j), 0.6+0.3*x.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if ci > 0 {
			if err := b.AddEdge(base-int32(s), base, 0.15); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestClusteringDeterministicAcrossParallelism runs MCP and ACP with the
// worker pool forced to 1, 4 and 16 and requires bit-identical clusterings:
// the concurrent oracle engine and the candidate fan-out must not leak the
// worker count into results. Alpha > 1 makes the candidate fan-out real.
func TestClusteringDeterministicAcrossParallelism(t *testing.T) {
	g := communityGraph(t, 4, 12, 9)
	sched := conn.Schedule{Min: 32, Max: 256, Coef: 8}

	for _, algo := range []string{"mcp", "acp", "acp-geometric"} {
		var ref *Clustering
		for _, par := range []int{1, 4, 16} {
			oracle := conn.NewMonteCarlo(g, 77)
			oracle.SetParallelism(par)
			opt := Options{Seed: 5, Alpha: 4, Schedule: sched, Parallelism: par}
			var (
				cl  *Clustering
				err error
			)
			switch algo {
			case "mcp":
				cl, _, err = MCP(oracle, 4, opt)
			case "acp":
				cl, _, err = ACP(oracle, 4, opt)
			case "acp-geometric":
				opt.Geometric = true
				cl, _, err = ACP(oracle, 4, opt)
			}
			if err != nil {
				t.Fatalf("%s par=%d: %v", algo, par, err)
			}
			if ref == nil {
				ref = cl
				continue
			}
			if len(cl.Centers) != len(ref.Centers) {
				t.Fatalf("%s par=%d: %d centers != %d", algo, par, len(cl.Centers), len(ref.Centers))
			}
			for i := range ref.Centers {
				if cl.Centers[i] != ref.Centers[i] {
					t.Fatalf("%s par=%d: center %d is node %d, serial picked %d",
						algo, par, i, cl.Centers[i], ref.Centers[i])
				}
			}
			for u := range ref.Assign {
				if cl.Assign[u] != ref.Assign[u] || cl.Prob[u] != ref.Prob[u] {
					t.Fatalf("%s par=%d node %d: (%d, %v) != serial (%d, %v)",
						algo, par, u, cl.Assign[u], cl.Prob[u], ref.Assign[u], ref.Prob[u])
				}
			}
		}
	}
}

// plainOracle exposes only conn.ContextOracle, hiding the estimator's
// Recycle, so min-partial keeps every vector it is handed.
type plainOracle struct{ conn.ContextOracle }

// TestRecyclingInvisible runs MCP and ACP (alpha 1 and 4, depth-limited
// removal too) against a Monte Carlo oracle, which takes estimate vectors
// back, and against the same estimator behind a wrapper that does not:
// clusterings and probabilities must be bit-identical.
func TestRecyclingInvisible(t *testing.T) {
	g := communityGraph(t, 4, 12, 3)
	sched := conn.Schedule{Min: 32, Max: 256, Coef: 8}
	for _, opt := range []Options{
		{Seed: 2, Alpha: 1, Schedule: sched},
		{Seed: 2, Alpha: 4, Schedule: sched},
		{Seed: 2, Alpha: 4, Schedule: sched, Depth: 3},
	} {
		for _, algo := range []string{"mcp", "acp"} {
			run := func(o conn.ContextOracle) *Clustering {
				var cl *Clustering
				var err error
				if algo == "mcp" {
					cl, _, err = MCP(o, 5, opt)
				} else {
					cl, _, err = ACP(o, 5, opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			got := run(conn.NewMonteCarlo(g, 8))
			want := run(plainOracle{conn.NewMonteCarlo(g, 8)})
			for u := range want.Assign {
				if got.Assign[u] != want.Assign[u] || got.Prob[u] != want.Prob[u] {
					t.Fatalf("%s %+v node %d: (%d, %v) recycling vs (%d, %v) without",
						algo, opt, u, got.Assign[u], got.Prob[u], want.Assign[u], want.Prob[u])
				}
			}
		}
	}
}
