package worldstore

import (
	"sync"
	"testing"

	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
)

// The unlimited-depth tally kernel (CountConnectedFrom / Multi) splits each
// block's worlds into largest-component popcounts and label sweeps. These
// tests hold it to a naive reference written here: per world, compute the
// component labels straight from the world stream and compare each node's
// label with the center's.

// refLabels returns the component labels of worlds [0, r) of (g, seed),
// computed without the store.
func refLabels(g *graph.Uncertain, seed uint64, r int) [][]int32 {
	uf := graph.NewUnionFind(g.NumNodes())
	out := make([][]int32, r)
	for i := range out {
		out[i] = make([]int32, g.NumNodes())
		sampler.World{G: g, Seed: seed, Index: uint64(i)}.ComponentLabels(uf, out[i])
	}
	return out
}

// refCounts is the naive reference tally: for each center cs[j], the
// number of worlds in [max(lo[j], 0), hi) where each node shares its
// component.
func refCounts(labs [][]int32, cs []graph.NodeID, lo []int, hi int) [][]int32 {
	out := make([][]int32, len(cs))
	for j, c := range cs {
		out[j] = make([]int32, len(labs[0]))
		for i := max(lo[j], 0); i < hi; i++ {
			for u, l := range labs[i] {
				if l == labs[i][c] {
					out[j][u]++
				}
			}
		}
	}
	return out
}

func equalCounts(t *testing.T, what string, got, want [][]int32) {
	t.Helper()
	for j := range want {
		for u := range want[j] {
			if got[j][u] != want[j][u] {
				t.Fatalf("%s: center #%d node %d: count %d, reference %d", what, j, u, got[j][u], want[j][u])
			}
		}
	}
}

// uniformGraph builds a ring plus n/4 chords, every edge with probability
// p: p near 0 leaves no giant component, p near 1 makes a near-total one.
func uniformGraph(t testing.TB, n int, p float64, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/4; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, p)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twinPaths builds two disjoint certain paths of n/2 nodes each, so every
// world has two largest components of equal size.
func twinPaths(t testing.TB, n int) *graph.Uncertain {
	t.Helper()
	var edges []graph.Edge
	for half := 0; half < 2; half++ {
		base := half * n / 2
		for i := base; i < base+n/2-1; i++ {
			edges = append(edges, graph.Edge{U: int32(i), V: int32(i + 1), P: 1})
		}
	}
	return mustGraph(t, n, edges)
}

// tallyCase is one (graph, world range) the kernel is checked on. Its hi
// and the drawn lo values cut inside blocks.
type tallyCase struct {
	name   string
	g      *graph.Uncertain
	wantBW int
	hi     int
}

func tallyCases(t *testing.T) []tallyCase {
	cases := []tallyCase{
		{"ties/bw=256", twinPaths(t, 200), 256, 600},
		{"no-giant/bw=256", uniformGraph(t, 200, 0.05, 1), 256, 530},
		{"singletons/bw=256", mustGraph(t, 200, nil), 256, 300},
		{"mixed/bw=100", ringGraph(t, 2621, 3), 100, 250},
		{"near-total/bw=64", uniformGraph(t, 4096, 0.95, 4), 64, 150},
	}
	if !testing.Short() {
		cases = append(cases, tallyCase{"mixed/bw=8", ringGraph(t, 32768, 5), 8, 21})
	}
	return cases
}

// drawCenters picks k centers (with a duplicate) and per-center lo values
// inside [−2, hi], most of them cutting a block.
func drawCenters(n, hi, k int, seed uint64) ([]graph.NodeID, []int) {
	x := rng.NewXoshiro256(seed)
	cs := make([]graph.NodeID, k)
	lo := make([]int, k)
	for j := range cs {
		cs[j] = graph.NodeID(x.Intn(n))
		lo[j] = x.Intn(hi+3) - 2
	}
	cs[k-1] = cs[0]
	lo[0] = 0
	return cs, lo
}

func TestConnectedTallyMatchesReference(t *testing.T) {
	for _, tc := range tallyCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			const seed = 31
			s := New(tc.g, seed)
			if s.bw != tc.wantBW {
				t.Fatalf("block worlds %d, want %d", s.bw, tc.wantBW)
			}
			labs := refLabels(tc.g, seed, tc.hi)
			cs, lo := drawCenters(tc.g.NumNodes(), tc.hi, 7, 9)
			want := refCounts(labs, cs, lo, tc.hi)

			// Batched, with per-center lo.
			before := s.Stats()
			multi := make([][]int32, len(cs))
			for j := range multi {
				multi[j] = make([]int32, tc.g.NumNodes())
			}
			s.CountConnectedFromMulti(cs, lo, tc.hi, multi)
			equalCounts(t, "multi", multi, want)
			st := s.Stats()
			tallied := 0
			for _, l := range lo {
				tallied += tc.hi - min(max(l, 0), tc.hi)
			}
			if got := int(st.GiantWorlds-before.GiantWorlds) + int(st.SweepWorlds-before.SweepWorlds); got != tallied {
				t.Fatalf("giant+sweep worlds %d, want %d (center, world) tallies", got, tallied)
			}

			// Single-center, accumulated over two ranges split mid-block.
			for j, c := range cs {
				single := make([]int32, tc.g.NumNodes())
				mid := (max(lo[j], 0) + tc.hi) / 2
				s.CountConnectedFrom(c, lo[j], mid, single)
				s.CountConnectedFrom(c, mid, tc.hi, single)
				equalCounts(t, "single", [][]int32{single}, want[j:j+1])
			}
		})
	}
}

// TestConnectedTallyGiantSplit checks both kernel halves actually run on
// the graphs meant to exercise them: a near-total giant answers almost
// every tally by popcount, a graph without one almost none.
func TestConnectedTallyGiantSplit(t *testing.T) {
	for _, tc := range []struct {
		name         string
		g            *graph.Uncertain
		giantAtLeast float64
		giantAtMost  float64
	}{
		{"near-total", uniformGraph(t, 300, 0.97, 6), 0.9, 1},
		{"no-giant", uniformGraph(t, 300, 0.05, 7), 0, 0.1},
	} {
		s := New(tc.g, 3)
		cs, lo := drawCenters(tc.g.NumNodes(), 0, 16, 2)
		counts := make([][]int32, len(cs))
		for j := range counts {
			counts[j] = make([]int32, tc.g.NumNodes())
		}
		s.CountConnectedFromMulti(cs, lo, 400, counts)
		st := s.Stats()
		share := float64(st.GiantWorlds) / float64(st.GiantWorlds+st.SweepWorlds)
		if share < tc.giantAtLeast || share > tc.giantAtMost {
			t.Fatalf("%s: popcount share %.3f outside [%v, %v] (%+v)", tc.name, share, tc.giantAtLeast, tc.giantAtMost, st)
		}
	}
}

// TestConnectedTallyEvictionAndSpill: the giant bitset is derived, never
// spilled — a block evicted under SetBudget(1), recomputed or reloaded
// from the disk tier, rebuilds it from its labels and tallies identically.
func TestConnectedTallyEvictionAndSpill(t *testing.T) {
	const seed, hi = 8, 700
	g := ringGraph(t, 300, 4)
	labs := refLabels(g, seed, hi)
	cs, lo := drawCenters(g.NumNodes(), hi, 5, 4)
	want := refCounts(labs, cs, lo, hi)
	tally := func(s *Store) [][]int32 {
		out := make([][]int32, len(cs))
		for j := range out {
			out[j] = make([]int32, g.NumNodes())
		}
		s.CountConnectedFromMulti(cs, lo, hi, out)
		return out
	}

	bounded := New(g, seed)
	bounded.SetBudget(1) // every block evicts as soon as it is released
	for pass := 0; pass < 2; pass++ {
		equalCounts(t, "budget=1", tally(bounded), want)
	}
	if st := bounded.Stats(); st.Evictions == 0 || st.Recomputes == 0 {
		t.Fatalf("budget=1 store never evicted and recomputed: %+v", st)
	}

	tiered := New(g, seed)
	if err := tiered.AttachCache(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	equalCounts(t, "tiered cold", tally(tiered), want)
	tiered.SetBudget(1) // spill every block
	tiered.SetBudget(0)
	if st := tiered.Stats(); st.SpillWrites == 0 || st.ResidentBlocks != 0 {
		t.Fatalf("blocks did not spill: %+v", st)
	}
	equalCounts(t, "tiered reloaded", tally(tiered), want)
	if st := tiered.Stats(); st.DiskHits == 0 {
		t.Fatalf("reload never hit the disk tier: %+v", st)
	}
	tiered.mu.Lock()
	for _, b := range tiered.blocks[famLabels] {
		if b.gdone != b.done || len(b.giant) != tiered.giantBytes() {
			t.Errorf("reloaded block %d: giant bitset covers %d of %d worlds", b.idx, b.gdone, b.done)
		}
	}
	tiered.mu.Unlock()
}

// TestConnectedTallyConcurrentExtension runs tallies from several
// goroutines while each grows the world prefix, so label and giant-bitset
// extensions race with readers of the previous buffers (run under -race).
func TestConnectedTallyConcurrentExtension(t *testing.T) {
	const seed, hi, readers = 12, 300, 6
	g := ringGraph(t, 120, 9)
	labs := refLabels(g, seed, hi)
	s := New(g, seed)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := graph.NodeID(w * 17 % g.NumNodes())
			for h := 1 + w; h <= hi; h += 23 {
				got := make([]int32, g.NumNodes())
				s.CountConnectedFrom(c, 0, h, got)
				want := refCounts(labs, []graph.NodeID{c}, []int{0}, h)[0]
				for u := range want {
					if got[u] != want[u] {
						t.Errorf("reader %d hi=%d node %d: count %d, reference %d", w, h, u, got[u], want[u])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// benchTally times the single-center unlimited-depth tally — the call
// min-partial's oracle extension makes — over a warm store: labels and
// giant bitsets of all 768 worlds (the paper's sample cap) materialized
// outside the timer. Each op tallies one center over every world, cycling
// through 64 centers spread over the graph.
func benchTally(b *testing.B, gen func(uint64) (*datasets.Dataset, error)) {
	ds, err := gen(1)
	if err != nil {
		b.Fatal(err)
	}
	const worlds = 768
	g := ds.Graph
	s := New(g, 7)
	counts := make([]int32, g.NumNodes())
	s.CountConnectedFrom(0, 0, worlds, counts)
	centers := make([]graph.NodeID, 64)
	for i := range centers {
		centers[i] = graph.NodeID(i * g.NumNodes() / len(centers))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CountConnectedFrom(centers[i%len(centers)], 0, worlds, counts)
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(worlds, "worlds/op")
	b.ReportMetric(float64(st.GiantWorlds)/float64(st.GiantWorlds+st.SweepWorlds), "giant_share")
}

func BenchmarkCountConnectedFromKrogan(b *testing.B) { benchTally(b, datasets.Krogan) }
func BenchmarkCountConnectedFromGavin(b *testing.B)  { benchTally(b, datasets.Gavin) }
