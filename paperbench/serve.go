package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime/pprof"
	"sync"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
	"ucgraph/internal/server"
	"ucgraph/internal/shard"
	"ucgraph/internal/worldstore"
)

// The traffic mix is assumed, not taken from traffic data; the repository
// holds no request trace. Where a parameter has a source in the
// repository, it is named.
const (
	// servePeriod is the length of the request cycle the closed loop
	// repeats: each request's cost is the least of its repetitions (see
	// leastOf). One client sends them one at a time, so the CPU time the
	// process spends between sending a request and reading its answer is
	// that request's cost, client, server and workers together. A cycle
	// of 100 repeats each request about 50 times in 40 s; at 200 the
	// least of half as many repetitions moved twice as much between runs.
	servePeriod = 100
	// serveClusterEvery makes every n-th request of the cycle a
	// /v1/cluster MCP request; the rest are /v1/conn. Assumed.
	serveClusterEvery = 25
	// serveSamples is the world budget of a /v1/conn request: the
	// server's default (server.Options.DefaultSamples).
	serveSamples = 1000
	// serveScored is how many clusterings are scored for pmin_mean and
	// pavg_mean: the cycle's, and more of the same kind.
	serveScored = 16
	// serveCheckEvery samples every n-th conn answer of the cycle for the
	// bit-identity check against a local estimator and, in the traced
	// phase, for the replays.
	serveCheckEvery = 4
	// serveGraphs is how many Krogan instances the server serves. Conn
	// traffic goes to the first; clusterings alternate between them, so
	// their cost and p_min average two inputs.
	serveGraphs = 2
	// warmWorlds is the sample cap of the server's default clustering
	// schedule (conn.DefaultSchedule).
	warmWorlds = 4096
)

// request is one entry of the seeded request cycle.
type request struct {
	cluster bool
	graph   int // index into serveEnv.graphs
	seed    uint64
	centers []int32
}

// requestCycle derives the servePeriod requests of the cycle from the
// workload seed: conn requests over connCenters distinct centers drawn
// from pool, and every serveClusterEvery-th request an MCP clustering
// (see clusterRequest).
func requestCycle(seed uint64, pool []int32) []request {
	r := rng.NewXoshiro256(seed ^ 0x5e7e)
	out := make([]request, servePeriod)
	for i := range out {
		if i%serveClusterEvery == serveClusterEvery-1 {
			out[i] = clusterRequest(seed, i/serveClusterEvery)
			continue
		}
		var cs []int32
		pick := map[int32]bool{}
		for len(cs) < connCenters {
			c := pool[r.Intn(len(pool))]
			if !pick[c] {
				pick[c] = true
				cs = append(cs, c)
			}
		}
		out[i] = request{centers: cs}
	}
	return out
}

// clusterRequest is the j-th MCP clustering request of the workload seed:
// the graphs take turns, each request has its own candidate-selection
// seed.
func clusterRequest(seed uint64, j int) request {
	return request{cluster: true, graph: j % serveGraphs, seed: rng.Mix64(seed ^ 0xc1a5 ^ uint64(j)*0x9e3779b97f4a7c15)}
}

// servedGraph is one graph of the deployment.
type servedGraph struct {
	name string
	g    *graph.Uncertain
	seed uint64
	// k is the cluster count of its /v1/cluster requests.
	k int
}

// serveEnv is the set-up state of serve-sharded: two loopback shard
// workers, the server over them, and a client.
type serveEnv struct {
	graphs  []servedGraph
	workers []*shard.Worker
	front   *server.Server
	https   []*http.Server
	wg      sync.WaitGroup
	base    string
	client  *http.Client
	cycle   []request
	seed    uint64
	// pool holds the centers conn requests draw from: those of the
	// server's own clustering of the first graph.
	pool []int32
}

// listen serves h on a fresh loopback port and returns its base URL.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	e.https = append(e.https, hs)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close tears the deployment down and waits for every server goroutine.
func (e *serveEnv) close() {
	if e.front != nil {
		e.front.Close()
	}
	for _, hs := range e.https {
		hs.Close()
	}
	e.wg.Wait()
	e.client.CloseIdleConnections()
}

// startWorkers starts n loopback shard workers serving graphs.
func (e *serveEnv) startWorkers(n int, graphs []servedGraph) ([]*shard.Worker, []string, error) {
	var wgs []shard.WorkerGraph
	for _, sg := range graphs {
		wgs = append(wgs, shard.WorkerGraph{Name: sg.name, Graph: sg.g, Seed: sg.seed})
	}
	var ws []*shard.Worker
	var addrs []string
	for i := 0; i < n; i++ {
		w, err := shard.NewWorker(wgs, shard.WorkerOptions{})
		if err != nil {
			return nil, nil, err
		}
		addr, err := e.listen(w)
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, w)
		addrs = append(addrs, addr)
	}
	return ws, addrs, nil
}

func setupServe(ctx context.Context, seed uint64) (*serveEnv, error) {
	e := &serveEnv{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	var gcs []server.GraphConfig
	for i := 0; i < serveGraphs; i++ {
		gs := instanceSeed(seed, 0, i)
		ds, err := datasets.Krogan(gs)
		if err != nil {
			return nil, err
		}
		// k = n/20 keeps MCP's cost steady between inputs. At n/50 and
		// below the default schedule either stops at q=0.2 or, for some
		// inputs and candidate-selection seeds, runs on to 4096 worlds, a 25x swing;
		// at n/10 the binary search ends in one of two places, a 2x swing
		// between graphs.
		sg := servedGraph{name: fmt.Sprintf("krogan%d", i), g: ds.Graph, seed: rng.Mix64(gs ^ 0x5707e), k: ds.Graph.NumNodes() / 20}
		e.graphs = append(e.graphs, sg)
		gcs = append(gcs, server.GraphConfig{Name: sg.name, Graph: sg.g, Seed: sg.seed})
	}
	ws, addrs, err := e.startWorkers(2, e.graphs)
	if err != nil {
		e.close()
		return nil, err
	}
	e.workers = ws
	e.front, err = server.New(gcs, server.Options{Shards: addrs, Parallelism: timedPar})
	if err != nil {
		e.close()
		return nil, err
	}
	if e.base, err = e.listen(e.front); err != nil {
		e.close()
		return nil, err
	}
	// Ready once the server has pinged both workers.
	for {
		resp, err := e.client.Get(e.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil {
			e.close()
			return nil, fmt.Errorf("server never became ready: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Warm-up: a components tally over the worlds the clustering
	// schedule reaches materializes their label blocks on both workers.
	for _, sg := range e.graphs {
		var res map[string]any
		if _, err := e.post(ctx, "/v1/reliability", map[string]any{"graph": sg.name, "kind": "components", "samples": warmWorlds}, &res); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %v", err)
		}
	}
	// Conn requests ask about the centers of a clustering the server
	// returned, and one request for the whole pool tallies them all in
	// the server's estimator. Every timed conn request then finds its
	// tallies cached, so the cache is in the same state from the first
	// request to the last, and a conn request times admission, the tally
	// cache and the JSON answer. The shard wire and the worker caches
	// carry the /v1/cluster requests, whose estimators start empty.
	g0 := e.graphs[0]
	var cl clusterReply
	if _, err := e.post(ctx, "/v1/cluster", map[string]any{"graph": g0.name, "algo": "mcp", "k": g0.k, "seed": rng.Mix64(seed ^ 0x9001)}, &cl); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %v", err)
	}
	e.pool = cl.Centers
	var warm connReply
	if _, err := e.post(ctx, "/v1/conn", map[string]any{"graph": g0.name, "centers": e.pool, "targets": e.pool[:1], "samples": serveSamples}, &warm); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %v", err)
	}
	e.seed = seed
	e.cycle = requestCycle(seed, e.pool)
	return e, nil
}

type clusterReply struct {
	Centers []int32   `json:"centers"`
	Assign  []int32   `json:"assign"`
	Prob    []float64 `json:"prob"`
}

type connReply struct {
	Estimates [][]float64 `json:"estimates"`
}

// post sends one JSON request and decodes the 200 answer into out.
func (e *serveEnv) post(ctx context.Context, path string, body any, out any) (time.Duration, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func (e *serveEnv) getJSON(path string, out any) error {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// served is what the closed loop recorded.
type served struct {
	// perReq holds each request's CPU times, by position in the cycle.
	perReq   []timings
	ok, fail int
	checks   []connCheck
	// clusters holds the first answer at each clustering position;
	// repeatDiffs counts later answers there that differ from it.
	clusters    map[int]*core.Clustering
	repeatDiffs int
	notes       []string
	// traced-run attribution, summed over replayed conn requests
	coord, local, http time.Duration
	replayed           int
	mismatches         int
}

type connCheck struct {
	centers []int32
	est     [][]float64
}

// split returns the per-request timings of the cycle's clustering and
// conn requests.
func (sv *served) split(cycle []request) (cluster, conn []timings) {
	for i, rq := range cycle {
		if rq.cluster {
			cluster = append(cluster, sv.perReq[i])
		} else {
			conn = append(conn, sv.perReq[i])
		}
	}
	return cluster, conn
}

// loop is the closed loop: one client sends the cycle's requests in
// order, each once the previous one returned, and repeats the cycle until
// the deadline, at least minPasses times.
func (e *serveEnv) loop(ctx context.Context, seconds float64, mir *shard.Coordinator) *served {
	sv := &served{perReq: make([]timings, len(e.cycle)), clusters: map[int]*core.Clustering{}}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	pprof.Do(ctx, pprof.Labels("bench", "op"), func(ctx context.Context) {
		for pass := 0; ctx.Err() == nil && (pass < minPasses || time.Now().Before(deadline)); pass++ {
			for i := range e.cycle {
				e.send(ctx, i, pass == 0, sv, mir)
			}
		}
	})
	return sv
}

// send issues cycle request i and records its outcome; first marks the
// cycle's first pass, whose answers the gate checks.
func (e *serveEnv) send(ctx context.Context, i int, first bool, sv *served, mir *shard.Coordinator) {
	rq := e.cycle[i]
	if rq.cluster {
		var res clusterReply
		sg := e.graphs[rq.graph]
		c0 := cpuTime()
		_, err := e.post(ctx, "/v1/cluster", map[string]any{"graph": sg.name, "algo": "mcp", "k": sg.k, "seed": rq.seed}, &res)
		cpu := cpuTime() - c0
		if err != nil {
			sv.fail++
			sv.notes = append(sv.notes, err.Error())
			return
		}
		sv.ok++
		sv.perReq[i].add(cpu)
		cl := &core.Clustering{Centers: res.Centers, Assign: res.Assign, Prob: res.Prob}
		if first {
			sv.clusters[i] = cl
		} else if !sameClustering(cl, sv.clusters[i]) {
			sv.repeatDiffs++
		}
		return
	}
	var res connReply
	g0 := e.graphs[0]
	c0 := cpuTime()
	d, err := e.post(ctx, "/v1/conn", map[string]any{"graph": g0.name, "centers": rq.centers, "samples": serveSamples}, &res)
	cpu := cpuTime() - c0
	if err != nil {
		sv.fail++
		sv.notes = append(sv.notes, err.Error())
		return
	}
	sv.ok++
	sv.perReq[i].add(cpu)
	if i%serveCheckEvery != 0 {
		return
	}
	if first {
		sv.checks = append(sv.checks, connCheck{rq.centers, res.Estimates})
	}
	if mir == nil {
		return
	}
	// Sampled answers are replayed on the mirror, whose cache is the
	// server's (the estimator's share of the round trip), on a fresh
	// fork of it (the query's cost through the shard fabric) and on a
	// fresh local estimator.
	pprof.Do(ctx, pprof.Labels("bench", "replay"), func(ctx context.Context) {
		cs := nodes(rq.centers)
		t0 := time.Now()
		est, rerr := mir.FromCentersCtx(ctx, cs, conn.Unlimited, serveSamples)
		cached := time.Since(t0)
		t0 = time.Now()
		_, ferr := mir.Fork().FromCentersCtx(ctx, cs, conn.Unlimited, serveSamples)
		sv.coord += time.Since(t0)
		t0 = time.Now()
		_, lerr := conn.NewMonteCarlo(g0.g, g0.seed).FromCentersCtx(ctx, cs, conn.Unlimited, serveSamples)
		sv.local += time.Since(t0)
		sv.http += d - cached
		sv.replayed++
		if rerr != nil || ferr != nil || lerr != nil || !sameEstimates(est, res.Estimates) {
			sv.mismatches++
		}
	})
}

func nodes(cs []int32) []graph.NodeID {
	out := make([]graph.NodeID, len(cs))
	copy(out, cs)
	return out
}

func sameEstimates(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for u := range a[i] {
			if math.Float64bits(a[i][u]) != math.Float64bits(b[i][u]) {
				return false
			}
		}
	}
	return true
}

// statsz is the part of /statsz the traced run reads.
type statsz struct {
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures"`
	Graphs   map[string]struct {
		Shards []struct {
			WorldsServed uint64 `json:"worlds_served"`
		} `json:"shards"`
		Fabric fabricCounts `json:"fabric"`
	} `json:"graphs"`
}

type fabricCounts struct {
	Hedges           uint64 `json:"hedges"`
	Rescatters       uint64 `json:"rescatters"`
	IntegrityRejects uint64 `json:"integrity_rejects"`
	WorldsServed     uint64 `json:"-"`
}

// fabric sums the fabric counters and the worlds the workers served over
// every graph.
func (st statsz) fabric() fabricCounts {
	var sum fabricCounts
	for _, g := range st.Graphs {
		sum.Hedges += g.Fabric.Hedges
		sum.Rescatters += g.Fabric.Rescatters
		sum.IntegrityRejects += g.Fabric.IntegrityRejects
		for _, sh := range g.Shards {
			sum.WorldsServed += sh.WorldsServed
		}
	}
	return sum
}

func runServe(ctx context.Context, cfg runConfig) (*report, error) {
	// core, conn, worldstore and the sampler kernels run inside the
	// server and its workers, out of the decorator's reach.
	rep := &report{na: []string{"core.", "conn.", "worldstore.", "input.", "bench.op_cpu_ms", "bench.layer_sum_gap_pct"}}
	reps := 3
	seconds := cfg.seconds
	if cfg.traced {
		reps = 1
		seconds /= 2
	}
	env, setupS, err := timedSetups(reps, func(int) (*serveEnv, error) {
		return setupServe(ctx, cfg.seed)
	}, (*serveEnv).close)
	if err != nil {
		return nil, fmt.Errorf("set-up: %v", err)
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	rep.metrics.set("setup_s", "s", setupS)
	rep.note("setup runs=%d", reps)

	var sv *served
	onOneP(func() { sv = env.loop(ctx, seconds, nil) })
	rep.metrics.set("peak_rss_mb", "MB", peakRSSMB())
	rep.attempted += sv.ok + sv.fail
	rep.failed += sv.fail
	for _, n := range sv.notes {
		rep.note("request failed: %s", n)
	}
	cl, cn := sv.split(env.cycle)
	rep.summarize("cluster", cl)
	rep.summarize("conn", cn)
	rep.metrics.set("ops_per_cpu_s", "1/s", opsPerCPUSecond(cl, cn))
	rep.note("clients=1 cycle=%d requests=%d cluster_every=%d conn_centers=%d of a pool of %d samples=%d",
		servePeriod, sv.ok+sv.fail, serveClusterEvery, connCenters, len(env.pool), serveSamples)

	if err := env.gate(ctx, rep, sv); err != nil {
		return nil, err
	}
	if cfg.traced {
		// The traced phase runs on a fresh deployment from the start of
		// the same cycle, so the workers' caches start where the
		// untraced phase's did.
		env.close()
		settle()
		if env, err = setupServe(ctx, cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		if err := env.tracedPhase(ctx, cfg, rep, seconds, sv); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// tracedPhase repeats the closed loop with sampled conn requests replayed
// (see send): server.http_ms is the round trip less the warm mirror's
// time, shard.coord_ms the time on a fresh coordinator fork, and
// shard.local_ms on a fresh local estimator. It reads the fabric, worker
// and server counters around the loop.
func (e *serveEnv) tracedPhase(ctx context.Context, cfg runConfig, rep *report, seconds float64, untraced *served) error {
	g0 := e.graphs[0]
	_, addrs, err := e.startWorkers(2, e.graphs[:1])
	if err != nil {
		return err
	}
	coord := shard.NewCoordinator(g0.name, g0.g, g0.seed, addrs, shard.CoordinatorOptions{})
	defer coord.Close()
	if err := coord.Ping(ctx); err != nil {
		return err
	}
	// The replays run on a coordinator over a second pair of workers, so
	// they do not warm the server's workers. Its workers, its tally cache
	// and the local store are warmed like the server's.
	mir := coord.Fork()
	if _, err := coord.ExpectedComponentsCtx(ctx, warmWorlds); err != nil {
		return fmt.Errorf("mirror warm-up: %v", err)
	}
	if _, err := mir.FromCentersCtx(ctx, nodes(e.pool), conn.Unlimited, serveSamples); err != nil {
		return fmt.Errorf("mirror warm-up: %v", err)
	}
	worldstore.Shared(g0.g, g0.seed).Scan(0, serveSamples, func(int, []int32) {})

	var st0, st1 statsz
	if err := e.getJSON("/statsz", &st0); err != nil {
		return err
	}
	wc0 := e.workerCounters()
	var sv *served
	if err := profiled(cfg, rep, func() { onOneP(func() { sv = e.loop(ctx, seconds, mir) }) }); err != nil {
		return err
	}
	wc1 := e.workerCounters()
	if err := e.getJSON("/statsz", &st1); err != nil {
		return err
	}
	rep.attempted += sv.ok + sv.fail
	rep.failed += sv.fail
	for _, n := range sv.notes {
		rep.note("request failed: %s", n)
	}
	rep.check(sv.mismatches == 0, "serve: %d conn answers differ from the mirror coordinator's", sv.mismatches)

	reqs := float64(max(sv.ok+sv.fail, 1))
	n := float64(max(sv.replayed, 1))
	m := &rep.metrics
	m.set("shard.coord_ms", "ms", ms(sv.coord)/n)
	m.set("shard.local_ms", "ms", ms(sv.local)/n)
	m.set("server.http_ms", "ms", ms(sv.http)/n)
	m.set("shard.worker_requests", "count", float64(wc1.Requests-wc0.Requests)/reqs)
	m.set("shard.worker_failures", "count", float64(wc1.Failures-wc0.Failures)/reqs)
	fab0, fab1 := st0.fabric(), st1.fabric()
	m.set("shard.worlds_served", "count", float64(fab1.WorldsServed-fab0.WorldsServed)/reqs)
	m.set("shard.rescatters", "count", float64(fab1.Rescatters-fab0.Rescatters))
	m.set("shard.hedges", "count", float64(fab1.Hedges-fab0.Hedges))
	m.set("shard.integrity_rejects", "count", float64(fab1.IntegrityRejects-fab0.IntegrityRejects))
	hits, miss := wc1.CacheHits-wc0.CacheHits, wc1.CacheMiss-wc0.CacheMiss
	m.set("shard.worker_cache_hit_ratio", "ratio", ratio(float64(hits), float64(hits+miss)))
	m.set("server.requests", "count", float64(st1.Requests-st0.Requests))
	m.set("server.failures", "count", float64(st1.Failures-st0.Failures))
	// Every conn request's centers were requested by the warm-up.
	m.set("server.repeat_center_share", "ratio", 1)
	_, tconn := sv.split(e.cycle)
	_, uconn := untraced.split(e.cycle)
	m.set("bench.trace_overhead_pct", "%", 100*(leastOf(tconn).mean()/leastOf(uconn).mean()-1))
	m.set("bench.traced_ops", "count", float64(sv.ok))
	var labels int64
	for _, sg := range e.graphs {
		labels += int64(sg.g.NumNodes()) * 4 * warmWorlds
	}
	m.set("input.label_ws_mb", "MB", float64(labels)/(1<<20))
	lu, bu := samplerCosts(g0.g, g0.seed)
	m.set("sampler.labels_us_per_world", "us", lu)
	m.set("sampler.bitmap_us_per_world", "us", bu)
	return nil
}

// workerCounters sums the server's workers' counters.
func (e *serveEnv) workerCounters() shard.WorkerCounters {
	var sum shard.WorkerCounters
	for _, w := range e.workers {
		c := w.Counters()
		sum.Requests += c.Requests
		sum.Failures += c.Failures
		sum.CacheHits += c.CacheHits
		sum.CacheMiss += c.CacheMiss
	}
	return sum
}

// gate checks the sampled conn answers against a local estimator bit for
// bit, validates every clustering, re-runs the stream's first clustering
// locally at Parallelism=1 for bit-identity, and scores the stream's first
// serveScored clusterings on an independent world sample.
func (e *serveEnv) gate(ctx context.Context, rep *report, sv *served) error {
	g0 := e.graphs[0]
	local := conn.NewMonteCarlo(g0.g, g0.seed)
	for _, ch := range sv.checks {
		est, err := local.FromCentersCtx(ctx, nodes(ch.centers), conn.Unlimited, serveSamples)
		rep.check(err == nil && sameEstimates(est, ch.est), "serve: /v1/conn answer for centers %v differs from the local estimator", ch.centers)
	}
	for i, cl := range sv.clusters {
		sg := e.graphs[e.cycle[i].graph]
		if msg := cl.Validate(); msg != "" {
			rep.violate("serve: clustering of request %d invalid: %s", i, msg)
		} else if !cl.IsFull() || cl.K() != sg.k || cl.N() != sg.g.NumNodes() {
			rep.violate("serve: clustering of request %d covers %d of %d nodes", i, cl.Covered(), sg.g.NumNodes())
		}
	}
	rep.check(sv.repeatDiffs == 0, "serve: %d repeated /v1/cluster answers differ from the first", sv.repeatDiffs)
	var pmin, pavg float64
	sc := newScorer(serveGraphs)
	for j := 0; j < serveScored; j++ {
		rq := clusterRequest(e.seed, j)
		sg := e.graphs[rq.graph]
		// The cycle's first clustering is re-run locally on parityPar
		// workers; clusterings beyond the cycle's are computed locally.
		cl, ok := sv.clusters[j*serveClusterEvery+serveClusterEvery-1]
		if !ok || j == 0 {
			par := timedPar
			if ok {
				par = parityPar()
			}
			mc := conn.NewMonteCarlo(sg.g, sg.seed)
			mc.SetParallelism(par)
			local, _, err := core.MCPCtx(ctx, mc, sg.k, core.Options{Seed: rq.seed, Parallelism: par})
			if err != nil {
				return fmt.Errorf("local clustering %d: %v", j, err)
			}
			if ok {
				rep.check(sameClustering(cl, local), "serve: /v1/cluster answer %d differs from core.MCP at Parallelism=%d", j, par)
			}
			cl = local
		}
		p, a := sc.score(cl, sg.g, sg.seed)
		pmin += p
		pavg += a
	}
	rep.metrics.set("pmin_mean", "prob", pmin/serveScored)
	rep.metrics.set("pavg_mean", "prob", pavg/serveScored)
	rep.note("quality clusterings=%d score_worlds=%d checked_conn=%d", serveScored, scoreWorlds, len(sv.checks))
	return nil
}
