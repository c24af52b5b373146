package shard

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/rng"
	"ucgraph/internal/worldstore"
)

// testGraph builds a deterministic ring-with-chords uncertain graph.
func testGraph(t testing.TB, n int, seed uint64) *graph.Uncertain {
	t.Helper()
	x := rng.NewXoshiro256(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		if err := b.AddEdge(int32(i), int32((i+1)%n), 0.2+0.7*x.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n/2; i++ {
		u, v := int32(x.Intn(n)), int32(x.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v, 0.1+0.6*x.Float64()) // duplicate edges rejected, fine
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startWorkers spins up count in-process shard workers over g, each with
// its own private world store (modelling separate processes), and returns
// their base URLs.
func startWorkers(t testing.TB, name string, g *graph.Uncertain, seed uint64, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := 0; i < count; i++ {
		w, err := NewWorker([]WorkerGraph{{Name: name, Graph: g, Seed: seed}}, WorkerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	return addrs
}

// sameFloats asserts bit-identical float slices.
func sameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v (bit difference)", label, i, got[i], want[i])
		}
	}
}

// coordCenters, coordCenter and coordPair are the context-free coordinator
// queries of these tests: an error fails the test instead of being
// returned.
func coordCenters(t testing.TB, c *Coordinator, cs []graph.NodeID, depth, r int) [][]float64 {
	t.Helper()
	out, err := c.FromCentersCtx(context.Background(), cs, depth, r)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func coordCenter(t testing.TB, c *Coordinator, ctr graph.NodeID, depth, r int) []float64 {
	t.Helper()
	return coordCenters(t, c, []graph.NodeID{ctr}, depth, r)[0]
}

func coordPair(t testing.TB, c *Coordinator, u, v graph.NodeID, r int) float64 {
	t.Helper()
	p, err := c.PairCtx(context.Background(), u, v, r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPartitionCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct{ lo, hi, bw, nw, rot int }{
		{0, 1000, 256, 1, 0},
		{0, 1000, 256, 3, 0},
		{0, 1000, 256, 4, 1},
		{100, 900, 256, 2, 0},
		{500, 501, 256, 4, 2},
		{0, 2048, 64, 5, 3},
	} {
		parts := Partition(tc.lo, tc.hi, tc.bw, tc.nw, tc.rot)
		if len(parts) != tc.nw {
			t.Fatalf("%+v: %d parts", tc, len(parts))
		}
		covered := make([]int, tc.hi)
		for _, part := range parts {
			for _, rg := range part {
				if rg.Hi <= rg.Lo {
					t.Fatalf("%+v: empty range %+v", tc, rg)
				}
				for i := rg.Lo; i < rg.Hi; i++ {
					covered[i]++
				}
				// Interior boundaries must be block-aligned so ranges map
				// onto whole worker-side blocks.
				if rg.Lo != tc.lo && rg.Lo%tc.bw != 0 {
					t.Fatalf("%+v: unaligned range start %d", tc, rg.Lo)
				}
				if rg.Hi != tc.hi && rg.Hi%tc.bw != 0 {
					t.Fatalf("%+v: unaligned range end %d", tc, rg.Hi)
				}
			}
		}
		for i := tc.lo; i < tc.hi; i++ {
			if covered[i] != 1 {
				t.Fatalf("%+v: world %d covered %d times", tc, i, covered[i])
			}
		}
	}
	// Ownership is static under extension: the blocks of [0, r1) keep
	// their workers when the range grows to r2.
	p1 := Partition(0, 700, 256, 4, 0)
	p2 := Partition(0, 1500, 256, 4, 0)
	for w := range p1 {
		for _, rg := range p1[w] {
			for i := rg.Lo; i < rg.Hi; i++ {
				found := false
				for _, rg2 := range p2[w] {
					if i >= rg2.Lo && i < rg2.Hi {
						found = true
					}
				}
				if !found {
					t.Fatalf("world %d moved off worker %d when the range grew", i, w)
				}
			}
		}
	}
}

// TestCoordinatorBitIdentical is the acceptance test: coordinator
// estimates over 1, 2 and 4 workers (including worker counts that split
// the block ranges unevenly) are bit-identical to the single-process
// oracle, across depths, progressive extensions and pair queries.
func TestCoordinatorBitIdentical(t *testing.T) {
	g := testGraph(t, 96, 3)
	const seed = 11
	centers := []graph.NodeID{0, 7, 7, 41, 90, 13}
	// Sample sizes chosen to split unevenly across blocks (BlockWorlds is
	// 256 for a 96-node graph): r1 covers one partial block, r2 several.
	const r1, r2 = 170, 730

	for _, nw := range []int{1, 2, 3, 4} {
		local := conn.NewMonteCarlo(g, seed)
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		if !coord.Sharded() {
			t.Fatal("coordinator should be sharded")
		}
		if err := coord.Ping(context.Background()); err != nil {
			t.Fatalf("ping: %v", err)
		}
		for _, depth := range []int{conn.Unlimited, 2} {
			want, err := local.FromCentersCtx(context.Background(), centers, depth, r1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.FromCentersCtx(context.Background(), centers, depth, r1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				sameFloats(t, "FromCenters", got[i], want[i])
			}
			// Progressive extension: the coordinator scatters only
			// [r1, r2) and the merged tally still matches.
			want2 := local.FromCenters(centers, depth, r2)
			got2 := coordCenters(t, coord, centers, depth, r2)
			for i := range want2 {
				sameFloats(t, "FromCenters extension", got2[i], want2[i])
			}
			// A fresh single center after the batch.
			wantC := local.FromCenter(55, depth, r2)
			gotC := coordCenter(t, coord, 55, depth, r2)
			sameFloats(t, "FromCenter", gotC, wantC)
		}
		wantP := local.Pair(3, 60, r2)
		gotP := coordPair(t, coord, 3, 60, r2)
		if math.Float64bits(wantP) != math.Float64bits(gotP) {
			t.Fatalf("workers=%d: Pair = %v, want %v", nw, gotP, wantP)
		}
	}
}

// TestCoordinatorMixedProgress exercises batches whose tallies sit at
// different sample counts (distinct scatter groups per rDone level).
func TestCoordinatorMixedProgress(t *testing.T) {
	g := testGraph(t, 64, 5)
	const seed = 9
	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, 2), CoordinatorOptions{})

	// Warm center 1 to 300 worlds, center 2 to 100; then batch all three
	// (one cold) to 500.
	local.FromCenter(1, conn.Unlimited, 300)
	local.FromCenter(2, conn.Unlimited, 100)
	coordCenter(t, coord, 1, conn.Unlimited, 300)
	coordCenter(t, coord, 2, conn.Unlimited, 100)
	want := local.FromCenters([]graph.NodeID{1, 2, 3}, conn.Unlimited, 500)
	got := coordCenters(t, coord, []graph.NodeID{1, 2, 3}, conn.Unlimited, 500)
	for i := range want {
		sameFloats(t, "mixed progress", got[i], want[i])
	}
}

// TestCoordinatorFoldIsAllOrNothing: a batch whose tallies sit at two
// progress levels scatters two rounds; when the second round fails, the
// first round's counts must not reach the tally cache either — every
// tally stays at its prior world count — and the retried batch answers
// bit-identically to a local estimator.
func TestCoordinatorFoldIsAllOrNothing(t *testing.T) {
	g := testGraph(t, 64, 5)
	const seed = 9
	proxy := newChaosProxy(t, startWorkers(t, "tg", g, seed, 1)[0])
	var armed atomic.Bool
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL()}, CoordinatorOptions{
		Retries:        1,
		RequestTimeout: 5 * time.Second,
		// Once armed, the first answered round takes the worker down, so
		// every later round of the batch fails.
		OnWorkerRTT: func(string, time.Duration) {
			if armed.CompareAndSwap(true, false) {
				proxy.SetDown(true)
			}
		},
	})

	// Center 1 at 100 worlds, center 2 at 300: a batch to 500 scatters
	// [100, 500) for center 1, then [300, 500) for center 2.
	coordCenter(t, coord, 1, conn.Unlimited, 100)
	coordCenter(t, coord, 2, conn.Unlimited, 300)
	armed.Store(true)
	if _, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{1, 2}, conn.Unlimited, 500); err == nil {
		t.Fatal("expected the batch to fail with its second round")
	}
	if armed.Load() {
		t.Fatal("the first round never answered")
	}

	// A cached tally answers any smaller request at its own precision, so
	// a one-world query reads each tally's world count back without
	// scattering (the worker is still down).
	local := conn.NewMonteCarlo(g, seed)
	sameFloats(t, "center 1 after the failed batch", coordCenter(t, coord, 1, conn.Unlimited, 1), local.FromCenter(1, conn.Unlimited, 100))
	sameFloats(t, "center 2 after the failed batch", coordCenter(t, coord, 2, conn.Unlimited, 1), local.FromCenter(2, conn.Unlimited, 300))

	proxy.SetDown(false)
	want := local.FromCenters([]graph.NodeID{1, 2}, conn.Unlimited, 500)
	got := coordCenters(t, coord, []graph.NodeID{1, 2}, conn.Unlimited, 500)
	for i := range want {
		sameFloats(t, "retried batch", got[i], want[i])
	}
}

// TestCoordinatorRetriesWithoutDoubleCounting kills a worker (its chaos
// proxy drops every connection) for a whole query: the coordinator
// re-scatters the failed blocks onto the survivor and the merged
// estimates stay bit-identical (any double- or under-count would change
// the integer tallies). After the "restart" the worker serves again.
func TestCoordinatorRetriesWithoutDoubleCounting(t *testing.T) {
	g := testGraph(t, 80, 7)
	const seed = 4
	workers := startWorkers(t, "tg", g, seed, 2)
	proxy := newChaosProxy(t, workers[0])

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{proxy.URL(), workers[1]}, CoordinatorOptions{
		Retries:        3,
		RequestTimeout: 5 * time.Second,
	})

	proxy.SetDown(true) // the worker dies before the query
	centers := []graph.NodeID{2, 17, 44}
	want := local.FromCenters(centers, conn.Unlimited, 900)
	got, err := coord.FromCentersCtx(context.Background(), centers, conn.Unlimited, 900)
	if err != nil {
		t.Fatalf("query with dead worker: %v", err)
	}
	for i := range want {
		sameFloats(t, "retried query", got[i], want[i])
	}
	// The dead worker's failures are visible in the health stats.
	var failures uint64
	for _, st := range coord.WorkerStats() {
		failures += st.Failures
	}
	if failures == 0 {
		t.Fatal("expected recorded worker failures")
	}
	// After the restart, the worker serves again: a follow-up query uses
	// both workers and still matches.
	proxy.SetDown(false)
	want2 := local.FromCenters(centers, 2, 400)
	got2 := coordCenters(t, coord, centers, 2, 400)
	for i := range want2 {
		sameFloats(t, "post-restart query", got2[i], want2[i])
	}
}

// TestCoordinatorRejectsMalformedResponses: a worker returning
// wrong-shaped tallies (version skew, or restarted with a different
// graph under the same name) is treated as a retriable failure — its
// ranges re-scatter to the healthy worker and the estimates stay exact —
// never merged and never a panic.
func TestCoordinatorRejectsMalformedResponses(t *testing.T) {
	g := testGraph(t, 48, 6)
	const seed = 8
	corrupt := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req TallyRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		worlds := 0
		for _, rg := range req.Ranges {
			worlds += rg.Worlds()
		}
		// Right world count, wrong payload shape.
		writeJSON(w, http.StatusOK, TallyResponse{Worlds: worlds, Counts: [][]int32{{1, 2, 3}}})
	})
	tsBad := httptest.NewServer(corrupt)
	t.Cleanup(tsBad.Close)
	good, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: seed}}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tsGood := httptest.NewServer(good)
	t.Cleanup(tsGood.Close)

	local := conn.NewMonteCarlo(g, seed)
	coord := NewCoordinator("tg", g, seed, []string{tsBad.URL, tsGood.URL}, CoordinatorOptions{Retries: 3})
	want := local.FromCenters([]graph.NodeID{0, 21}, conn.Unlimited, 900)
	got, err := coord.FromCentersCtx(context.Background(), []graph.NodeID{0, 21}, conn.Unlimited, 900)
	if err != nil {
		t.Fatalf("query with corrupt worker: %v", err)
	}
	for i := range want {
		sameFloats(t, "corrupt-worker query", got[i], want[i])
	}
	var sawMalformed bool
	for _, st := range coord.WorkerStats() {
		if st.Failures > 0 {
			sawMalformed = true
		}
	}
	if !sawMalformed {
		t.Fatal("malformed responses were not recorded as failures")
	}
}

// TestCoordinatorAllWorkersDown asserts a clean error — not a wrong or
// partial estimate — when every worker is unreachable.
func TestCoordinatorAllWorkersDown(t *testing.T) {
	g := testGraph(t, 32, 1)
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close() // dead on arrival
	coord := NewCoordinator("tg", g, 1, []string{ts.URL}, CoordinatorOptions{
		Retries:        1,
		RequestTimeout: 500 * time.Millisecond,
	})
	if _, err := coord.FromCenterCtx(context.Background(), 0, conn.Unlimited, 64); err == nil {
		t.Fatal("expected an error with all workers down")
	}
	if err := coord.Ping(context.Background()); err == nil {
		t.Fatal("expected ping to fail")
	}
}

// TestCoordinatorLocalFallback: with no workers configured, every surface
// answers locally and matches the library exactly.
func TestCoordinatorLocalFallback(t *testing.T) {
	g := testGraph(t, 48, 2)
	const seed = 6
	coord := NewCoordinator("tg", g, seed, nil, CoordinatorOptions{})
	if coord.Sharded() {
		t.Fatal("no workers -> not sharded")
	}
	local := conn.NewMonteCarlo(g, seed)
	sameFloats(t, "fallback FromCenter", coordCenter(t, coord, 5, conn.Unlimited, 200), local.FromCenter(5, conn.Unlimited, 200))
	if got, want := coordPair(t, coord, 1, 30, 200), local.Pair(1, 30, 200); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback Pair = %v, want %v", got, want)
	}
	dd, err := coord.DistancesCtx(context.Background(), 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	want := knn.SampleStore(worldstore.Shared(g, seed), 3, 120)
	if !reflect.DeepEqual(dd, want) {
		t.Fatal("fallback distance distribution differs from local")
	}
}

// TestCoordinatorDistancesBitIdentical: the scattered k-NN distance
// distribution equals the local one exactly, for several worker counts.
func TestCoordinatorDistancesBitIdentical(t *testing.T) {
	g := testGraph(t, 72, 8)
	const seed = 13
	const r = 600
	want := knn.SampleStore(worldstore.Shared(g, seed), 2, r)
	for _, nw := range []int{1, 3} {
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		dd, err := coord.DistancesCtx(context.Background(), 2, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dd, want) {
			t.Fatalf("workers=%d: scattered distance distribution differs from local", nw)
		}
		for _, m := range []knn.Measure{knn.MedianDistance, knn.ByReliability} {
			if !reflect.DeepEqual(dd.KNN(10, m), want.KNN(10, m)) {
				t.Fatalf("workers=%d: KNN(measure %v) differs", nw, m)
			}
		}
	}
}

// TestCoordinatorInfluenceBitIdentical: scattered spread and greedy
// maximization match the local implementations exactly.
func TestCoordinatorInfluenceBitIdentical(t *testing.T) {
	g := testGraph(t, 56, 10)
	const seed = 17
	const r = 500
	ws := worldstore.Shared(g, seed)
	seeds := []graph.NodeID{4, 31}
	wantSpread := influence.Spread(ws, seeds, r)
	wantGreedy, err := influence.Greedy(ws, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range []int{1, 2, 4} {
		coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, nw), CoordinatorOptions{})
		gotSpread, err := coord.SpreadCtx(context.Background(), seeds, r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotSpread) != math.Float64bits(wantSpread) {
			t.Fatalf("workers=%d: spread = %v, want %v", nw, gotSpread, wantSpread)
		}
		gotGreedy, err := coord.GreedyCtx(context.Background(), 4, r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotGreedy, wantGreedy) {
			t.Fatalf("workers=%d: greedy = %+v, want %+v", nw, gotGreedy, wantGreedy)
		}
	}
}

// TestCoordinatorForkIsolation: a forked coordinator shares workers but
// not tallies, so its results do not depend on what the parent warmed.
func TestCoordinatorForkIsolation(t *testing.T) {
	g := testGraph(t, 40, 12)
	const seed = 3
	coord := NewCoordinator("tg", g, seed, startWorkers(t, "tg", g, seed, 2), CoordinatorOptions{})
	// Warm the parent's tally for center 0 to high precision.
	coordCenter(t, coord, 0, conn.Unlimited, 800)
	// A fork must answer a smaller request at the requested precision,
	// exactly like a fresh estimator would.
	fresh := conn.NewMonteCarlo(g, seed)
	sameFloats(t, "forked coordinator", coordCenter(t, coord.Fork(), 0, conn.Unlimited, 100), fresh.FromCenter(0, conn.Unlimited, 100))
	// The parent itself answers at its cached precision (the documented
	// higher-precision contract).
	warm := conn.NewMonteCarlo(g, seed)
	warm.FromCenter(0, conn.Unlimited, 800)
	sameFloats(t, "warm coordinator", coordCenter(t, coord, 0, conn.Unlimited, 100), warm.FromCenter(0, conn.Unlimited, 100))
}

// TestWorkerValidation: malformed tally requests get an error frame over
// the v2 stream, not garbage tallies, and each counts as a failed request.
func TestWorkerValidation(t *testing.T) {
	g := testGraph(t, 16, 1)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 1}}, WorkerOptions{MaxWorlds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	sc, err := newStreamClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.close)

	cases := []TallyRequest{
		{Graph: "nope", Kind: KindConnected, Ranges: []Range{{0, 10}}, Centers: []int32{0}},
		{Graph: "tg", Kind: "bogus", Ranges: []Range{{0, 10}}},
		{Graph: "tg", Kind: KindConnected, Ranges: nil, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{5, 5}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{0, 2000}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{0, 10}}, Centers: []int32{99}},
		{Graph: "tg", Kind: KindConnected, Ranges: []Range{{20, 30}, {0, 10}}, Centers: []int32{0}},
		{Graph: "tg", Kind: KindPair, Ranges: []Range{{0, 10}}, U: 0, V: 77},
		{Graph: "tg", Kind: KindSpread, Ranges: []Range{{0, 10}}},
		{Graph: "tg", Kind: KindMarginal, Ranges: []Range{{0, 10}}, Candidates: []int32{99}},
	}
	for i, req := range cases {
		if err := rawStreamCall(t, sc, uint64(i+1), &req); err == nil {
			t.Fatalf("case %d: expected an error", i)
		}
	}
	if c := w.Counters(); c.Failures == 0 || c.Requests != uint64(len(cases)) {
		t.Fatalf("counters: %+v", c)
	}
}

// rawStreamCall sends req as one REQ frame over sc and returns the
// worker's error, if any. A kind with no wire code still goes out — as an
// unassigned kind byte — so the worker, not the client encoder, is the one
// to reject it.
func rawStreamCall(t *testing.T, sc *streamClient, id uint64, req *TallyRequest) error {
	t.Helper()
	wire := *req
	_, known := kindCode[req.Kind]
	if !known {
		wire.Kind = KindConnected
	}
	body, err := encodeRequestBody(nil, &wire)
	if err != nil {
		t.Fatal(err)
	}
	if !known {
		body[0] = 0xff // the kind code
	}
	frame := finishFrame(append(appendHeader(nil, frameReq, 0, id), body...), 0)
	conn, err := sc.get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := conn.register(id)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.writeFrame(sealFrame(frame, conn.sum)); err != nil {
		t.Fatal(err)
	}
	return (<-ch).err
}

// TestWorkerPing: the ping response carries the identity the coordinator
// verifies.
func TestWorkerPing(t *testing.T) {
	g := testGraph(t, 24, 1)
	w, err := NewWorker([]WorkerGraph{{Name: "tg", Graph: g, Seed: 5}}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w)
	t.Cleanup(ts.Close)
	wc := newWorkerClient(ts.URL, &http.Client{})
	var resp PingResponse
	if err := wc.do(context.Background(), PathPing, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Graphs) != 1 || resp.Graphs[0].Name != "tg" ||
		resp.Graphs[0].Nodes != g.NumNodes() || resp.Graphs[0].Seed != 5 ||
		resp.Graphs[0].BlockWorlds <= 0 {
		t.Fatalf("ping: %+v", resp)
	}
	// A coordinator over a DIFFERENT seed must refuse the worker.
	bad := NewCoordinator("tg", g, 6, []string{ts.URL}, CoordinatorOptions{})
	if err := bad.Ping(context.Background()); err == nil {
		t.Fatal("expected a seed-mismatch ping error")
	}
}
