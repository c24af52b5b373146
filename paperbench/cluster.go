package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"ucgraph/internal/conn"
	"ucgraph/internal/core"
	"ucgraph/internal/datasets"
	"ucgraph/internal/graph"
	"ucgraph/internal/metrics"
	"ucgraph/internal/rng"
	"ucgraph/internal/sampler"
	"ucgraph/internal/worldstore"
)

// schedule is the sample-size schedule of the paper reproduction
// (internal/experiments): start at 50 worlds, grow like 8/q, cap at 768.
var schedule = conn.Schedule{Min: 50, Max: 768, Coef: 8}

const (
	// connCenters and connSamples shape the in-process conn queries:
	// one multi-center FromCenters call on a fresh estimator.
	connCenters = 8
	connSamples = 512
	// scoreWorlds is the size of the independent world sample the
	// returned clusterings are scored on. p_min is a minimum over nodes
	// of estimates, so sampling noise pulls it down; 1024 worlds keep
	// that pull small next to the differences between inputs.
	scoreWorlds = 1024
	// minPasses is the least number of passes a timed loop runs, so that
	// every op's cost is the least of several repetitions.
	minPasses = 3
	// timedPar is the worker count of every timed op, core's and the
	// estimator's alike, and the P count of timed loops (see onOneP).
	timedPar = 1
)

// cell is one clustering configuration of a workload's op mix.
type cell struct {
	graph string
	algo  string // "mcp" or "acp"
	k     int
	depth int
	alpha int
	store int // index into clusterEnv.stores
}

func (c cell) String() string {
	return fmt.Sprintf("%s/%s/k=%d/d=%d/alpha=%d", c.graph, c.algo, c.k, c.depth, c.alpha)
}

// storeRef is one world store a workload holds warm for its ops. Holding
// ws keeps the shared store alive: conn.NewMonteCarlo(g, seed) finds it
// through the worldstore.Shared registry.
type storeRef struct {
	name string
	g    *graph.Uncertain
	seed uint64
	ws   *worldstore.Store
}

// clusterEnv is the set-up state of a clustering workload.
type clusterEnv struct {
	stores []storeRef
	cells  []cell
	// seeds are the pass's candidate-selection seeds; a pass runs every
	// cell under every seed, mixed with the cell's store seed (see
	// opSeed).
	seeds   []uint64
	labelWS int64
}

func runFig3(ctx context.Context, cfg runConfig) (*report, error) {
	return runClusterWorkload(ctx, cfg, 5, func(seed uint64) (*clusterEnv, error) {
		env := &clusterEnv{seeds: passSeeds(seed, 1)}
		families := []struct {
			name string
			gen  func(uint64) (*datasets.Dataset, error)
			ks   []float64
		}{{"krogan", datasets.Krogan, []float64{0.04, 0.06}}, {"gavin", datasets.Gavin, []float64{0.03, 0.06}}}
		for fi, fam := range families {
			// Two instances of each graph, each with its own world
			// sample, so a pass averages inputs. With four, a pass took
			// twice as long, each op got half as many repetitions in a
			// run, and the least of them moved three times as much
			// between runs as the inputs did.
			for i := 0; i < 2; i++ {
				gs := instanceSeed(seed, fi, i)
				ds, err := fam.gen(gs)
				if err != nil {
					return nil, err
				}
				s := env.addStore(fmt.Sprintf("%s#%d", fam.name, i), ds.Graph, gs)
				// k at 3-6% of n, PPI granularities of the paper's
				// Figure 3, where MCP's cost does not jump between
				// inputs. On Krogan at 3% MCP either stops at its first
				// sample size or runs to the cap, 6x the time (2 of 12
				// instances probed); at 4% and 6% it stopped on all 12.
				// On Gavin at 3% and 6% it ran to the cap on all 12.
				for _, frac := range fam.ks {
					k := int(frac * float64(s.g.NumNodes()))
					for _, algo := range []string{"mcp", "acp"} {
						env.cells = append(env.cells, cell{graph: s.name, algo: algo, k: k, depth: conn.Unlimited, alpha: 1, store: len(env.stores) - 1})
					}
				}
				env.labelWS += labelBytes(s.g)
				s.ws.Scan(0, schedule.Max, func(int, []int32) {})
			}
		}
		return env, nil
	})
}

// newStoreRef opens the shared store of g's worlds under a store seed
// derived from seed.
func newStoreRef(name string, g *graph.Uncertain, seed uint64) storeRef {
	ss := rng.Mix64(seed ^ 0x5707e)
	return storeRef{name: name, g: g, seed: ss, ws: worldstore.Shared(g, ss)}
}

// addStore registers a store for g (see newStoreRef) with the workload.
func (e *clusterEnv) addStore(name string, g *graph.Uncertain, seed uint64) storeRef {
	s := newStoreRef(name, g, seed)
	e.stores = append(e.stores, s)
	return s
}

// instanceSeed derives the seed of instance i of input family f.
func instanceSeed(seed uint64, f, i int) uint64 {
	return rng.Mix64(seed*0x9e3779b97f4a7c15 + uint64(f)<<32 + uint64(i))
}

// labelBytes is the label working set the schedule touches on g: one
// int32 label per node per world up to the schedule's cap.
func labelBytes(g *graph.Uncertain) int64 {
	return int64(g.NumNodes()) * 4 * int64(schedule.Max)
}

// opSeed is the candidate-selection seed of an op on store s under pass
// seed si. Mixing in the store seed keeps the candidate draws of
// different instances independent.
func (e *clusterEnv) opSeed(s storeRef, si int) uint64 {
	return rng.Mix64(e.seeds[si] ^ s.seed)
}

func passSeeds(seed uint64, n int) []uint64 {
	r := rng.NewXoshiro256(seed ^ 0xd21e5eed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// centerStream returns the center set of conn query j: connCenters
// distinct nodes drawn from the workload seed.
func centerStream(seed uint64, j, n int) []graph.NodeID {
	r := rng.NewXoshiro256(seed ^ 0xc0ffee ^ uint64(j)*0x9e3779b97f4a7c15)
	seen := map[graph.NodeID]bool{}
	out := make([]graph.NodeID, 0, connCenters)
	for len(out) < connCenters {
		c := graph.NodeID(r.Intn(n))
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// opResult is one finished clustering op.
type opResult struct {
	cl    *core.Clustering
	stats core.Stats
	err   error
	wall  time.Duration
	cpu   time.Duration
}

// runOp runs one clustering op on a fresh estimator over store s, with
// core and the estimator pinned to par workers; tr, when non-nil, is
// wrapped around the estimator. It measures the op's wall time and the
// CPU time the process spent on it.
func runOp(ctx context.Context, s storeRef, c cell, seed uint64, par int, tr func(*conn.MonteCarlo) conn.ContextOracle) opResult {
	mc := conn.NewMonteCarlo(s.g, s.seed)
	if mc.Store() != s.ws {
		return opResult{err: fmt.Errorf("%v: estimator is not on the workload's store", c)}
	}
	mc.SetParallelism(par)
	opt := core.Options{Seed: seed, Depth: c.depth, Alpha: c.alpha, Schedule: schedule, Parallelism: par}
	var o conn.ContextOracle = mc
	if tr != nil {
		o = tr(mc)
	}
	var res opResult
	c0 := cpuTime()
	t0 := time.Now()
	if c.algo == "acp" {
		res.cl, res.stats, res.err = core.ACPCtx(ctx, o, c.k, opt)
	} else {
		res.cl, res.stats, res.err = core.MCPCtx(ctx, o, c.k, opt)
	}
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - c0
	return res
}

// runConn runs conn query j: a multi-center FromCenters call at unlimited
// depth on a fresh estimator over the first store, the in-process form of
// a /v1/conn request. It returns the CPU time the process spent on it.
func (e *clusterEnv) runConn(ctx context.Context, cfg runConfig, j int) ([][]float64, []graph.NodeID, time.Duration, error) {
	s := e.stores[0]
	cs := centerStream(cfg.seed, j, s.g.NumNodes())
	mc := conn.NewMonteCarlo(s.g, s.seed)
	mc.SetParallelism(timedPar)
	c0 := cpuTime()
	est, err := mc.FromCentersCtx(ctx, cs, conn.Unlimited, connSamples)
	return est, cs, cpuTime() - c0, err
}

// phase is what one timed loop measured. Every pass runs the same ops on
// the same inputs, so each op is timed once per pass, and an op's cost is
// its least CPU time over the passes. The process runs one op at a time on
// one P, so that is the op's latency on an otherwise idle CPU: unlike wall
// time, CPU time does not grow while a neighbour on a shared host holds
// the CPU, and the least of several repetitions drops those that ran
// while a neighbour crowded the caches.
type phase struct {
	// perCell and perConn hold each op's CPU times, one per pass:
	// clustering ops by (seed index, cell index) in pass order, conn
	// queries by the clustering op they follow.
	perCell, perConn []timings
	passes           int
	// results keeps the clustering of (cell index, seed index) for the
	// quality score and the correctness gate.
	results map[[2]int]*core.Clustering
	layers  layerAgg
}

// loop runs complete passes until the deadline. A pass runs every cell
// under every pass seed, each followed by a conn query; the pass's j-th
// conn query is the same in every pass. traced wraps every clustering op
// in a tracer and replays its calls afterwards.
func (e *clusterEnv) loop(ctx context.Context, cfg runConfig, rep *report, seconds float64, traced bool) (*phase, error) {
	nops := len(e.seeds) * len(e.cells)
	ph := &phase{results: map[[2]int]*core.Clustering{}, perCell: make([]timings, nops), perConn: make([]timings, nops)}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for ; ph.passes < minPasses || time.Now().Before(deadline); ph.passes++ {
		for si := range e.seeds {
			for ci, c := range e.cells {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				s := e.stores[c.store]
				seed := e.opSeed(s, si)
				var res opResult
				if traced {
					res = e.tracedOp(ctx, s, c, seed, &ph.layers)
				} else {
					res = runOp(ctx, s, c, seed, timedPar, nil)
				}
				rep.attempted++
				if res.err != nil {
					rep.failed++
					rep.note("op %v failed: %v", c, res.err)
					continue
				}
				op := si*len(e.cells) + ci
				ph.perCell[op].add(res.cpu)
				e.gate(rep, c, res.cl)
				if _, ok := ph.results[[2]int{ci, si}]; !ok {
					ph.results[[2]int{ci, si}] = res.cl
				}
				e.connQuery(ctx, cfg, rep, ph, op)
			}
		}
	}
	return ph, nil
}

// connQuery runs conn query j and checks that every center is connected
// to itself with probability 1.
func (e *clusterEnv) connQuery(ctx context.Context, cfg runConfig, rep *report, ph *phase, j int) {
	est, cs, d, err := e.runConn(ctx, cfg, j)
	rep.attempted++
	if err != nil {
		rep.failed++
		rep.note("conn query failed: %v", err)
		return
	}
	ph.perConn[j].add(d)
	for i, c := range cs {
		if est[i][c] != 1 {
			rep.violate("conn query: Pr(c ~ c) = %v for center %d", est[i][c], c)
		}
	}
}

// gate checks one returned clustering: structurally valid and covering
// every node.
func (e *clusterEnv) gate(rep *report, c cell, cl *core.Clustering) {
	if msg := cl.Validate(); msg != "" {
		rep.violate("%v: invalid clustering: %s", c, msg)
	}
	if !cl.IsFull() || cl.K() != c.k {
		rep.violate("%v: clustering covers %d of %d nodes with %d clusters", c, cl.Covered(), cl.N(), cl.K())
	}
}

// tracedOp runs one op through the tracer, then replays its calls, and
// folds everything into agg.
func (e *clusterEnv) tracedOp(ctx context.Context, s storeRef, c cell, seed uint64, agg *layerAgg) opResult {
	var tr *tracer
	st0 := s.ws.Stats()
	var res opResult
	pprof.Do(ctx, pprof.Labels("bench", "op"), func(ctx context.Context) {
		res = runOp(ctx, s, c, seed, timedPar, func(mc *conn.MonteCarlo) conn.ContextOracle {
			tr = newTracer(mc, s.ws)
			tr.start()
			return tr
		})
		tr.finish(tr.opStart.Add(res.wall))
	})
	st1 := s.ws.Stats()
	if res.err != nil {
		return res
	}
	var rt replayTimes
	pprof.Do(ctx, pprof.Labels("bench", "replay"), func(context.Context) {
		rt = tr.replay(s.g)
	})
	agg.add(res, tr, rt, st0, st1)
	return res
}

// layerAgg sums the per-layer measurements of the traced ops.
type layerAgg struct {
	ops                                  int
	wall, cpu, self, busy                time.Duration
	scan                                 time.Duration
	invocations, oracleCalls, maxSamples int
	calls, centers, requested, fresh     int
	hits, mats                           uint64
	resident                             int64
	// unfaithful counts ops whose replay did not reproduce the
	// estimator's answer (see replayTimes.faithful).
	unfaithful int
}

func (a *layerAgg) add(res opResult, tr *tracer, rt replayTimes, st0, st1 worldstore.Stats) {
	a.ops++
	a.wall += res.wall
	a.cpu += res.cpu
	a.self += tr.self
	a.busy += tr.busy
	a.scan += rt.scan
	a.invocations += res.stats.Invocations
	a.oracleCalls += res.stats.OracleCalls
	a.maxSamples += res.stats.MaxSamples
	a.calls += tr.calls
	a.centers += tr.centers
	a.requested += tr.requests
	a.fresh += tr.fresh
	a.hits += st1.Hits - st0.Hits
	a.mats += st1.Materializations - st0.Materializations
	a.resident = max(a.resident, st1.ResidentBytes)
	if !rt.faithful {
		a.unfaithful++
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runClusterWorkload runs a clustering workload. build generates the
// workload's inputs from the workload seed and warms its stores; a run
// repeats that setups times for setup_s.
func runClusterWorkload(ctx context.Context, cfg runConfig, setups int, build func(seed uint64) (*clusterEnv, error)) (*report, error) {
	rep := &report{na: []string{"shard.", "server."}}
	reps := setups
	if cfg.traced {
		reps = 1
	}
	env, setupS, err := timedSetups(reps, func(int) (*clusterEnv, error) {
		return build(cfg.seed)
	}, func(*clusterEnv) {})
	if err != nil {
		return nil, fmt.Errorf("set-up: %v", err)
	}
	rep.metrics.set("setup_s", "s", setupS)
	rep.note("setup runs=%d", reps)

	seconds := cfg.seconds
	if cfg.traced {
		seconds /= 2
	}
	var ph *phase
	onOneP(func() { ph, err = env.loop(ctx, cfg, rep, seconds, false) })
	if err != nil {
		return nil, err
	}
	rep.metrics.set("peak_rss_mb", "MB", peakRSSMB())
	rep.summarize("cluster", ph.perCell)
	rep.summarize("conn", ph.perConn)
	rep.metrics.set("ops_per_cpu_s", "1/s", opsPerCPUSecond(ph.perCell, ph.perConn))
	rep.note("passes=%d cells=%d seeds=%d", ph.passes, len(env.cells), len(env.seeds))
	rep.note("input label_ws_mb=%.1f", float64(env.labelWS)/(1<<20))
	for ci, c := range env.cells {
		rep.note("cell %v cpu_ms=%.1f n=%d", c, slices.Min(ph.perCell[ci]), len(ph.perCell[ci]))
	}

	if cfg.traced {
		var tph *phase
		perr := profiled(cfg, rep, func() {
			onOneP(func() { tph, err = env.loop(ctx, cfg, rep, seconds, true) })
		})
		if err = errors.Join(perr, err); err != nil {
			return nil, err
		}
		env.layerMetrics(rep, ph, tph)
	}

	if err := env.quality(ctx, rep, ph); err != nil {
		return nil, err
	}
	env.parityGate(ctx, rep, ph)
	return rep, nil
}

// timedSetups builds n times, each from settled memory, and returns the
// last build with the median set-up time. release frees each earlier
// build before the next starts.
func timedSetups[T any](n int, build func(i int) (T, error), release func(T)) (T, float64, error) {
	var last, none T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			release(last)
			last = none
		}
		settle()
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return none, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}

// layerMetrics turns the traced phase into the per-layer metrics.
func (e *clusterEnv) layerMetrics(rep *report, untraced, traced *phase) {
	a := traced.layers
	n := float64(max(a.ops, 1))
	m := &rep.metrics
	m.set("core.self_ms", "ms", ms(a.self)/n)
	m.set("core.self_share", "ratio", ratio(ms(a.self), ms(a.wall)))
	m.set("core.invocations", "count", float64(a.invocations)/n)
	m.set("core.oracle_calls", "count", float64(a.oracleCalls)/n)
	m.set("core.max_samples", "count", float64(a.maxSamples)/n)
	m.set("conn.busy_ms", "ms", ms(a.busy)/n)
	m.set("conn.busy_share", "ratio", ratio(ms(a.busy), ms(a.wall)))
	m.set("conn.calls", "count", float64(a.calls)/n)
	m.set("conn.centers_per_call", "count", ratio(float64(a.centers), float64(a.calls)))
	m.set("conn.worlds_requested", "count", float64(a.requested)/n)
	m.set("conn.worlds_new", "count", float64(a.fresh)/n)
	m.set("conn.tally_reuse", "ratio", 1-ratio(float64(a.fresh), float64(a.requested)))
	m.set("worldstore.hits", "count", float64(a.hits)/n)
	m.set("worldstore.materializations", "count", float64(a.mats)/n)
	m.set("worldstore.hit_ratio", "ratio", ratio(float64(a.hits), float64(a.hits+a.mats)))
	m.set("worldstore.resident_mb_peak", "MB", float64(a.resident)/(1<<20))
	m.set("worldstore.scan_ms", "ms", ms(a.scan)/n)
	m.set("worldstore.scan_cpu_share", "ratio", ratio(ms(a.scan), ms(a.cpu)))
	m.set("bench.op_cpu_ms", "ms", ms(a.cpu)/n)
	m.set("bench.traced_ops", "count", float64(a.ops))
	// Layer sum: core's gaps plus the oracle's calls against the op wall
	// time measured outside both. Both sides come from one clock, so the
	// gap shows the tracer's own bookkeeping, not misattributed time; the
	// check that the replays time the estimator's work is the fidelity
	// check below.
	m.set("bench.layer_sum_gap_pct", "%", 100*math.Abs(ms(a.self)+ms(a.busy)-ms(a.wall))/ms(a.wall))
	rep.check(a.unfaithful == 0, "replay: on %d of %d traced ops the replayed tallies differ from the estimator's answer", a.unfaithful, a.ops)
	m.set("bench.trace_overhead_pct", "%", 100*(leastOf(traced.perCell).mean()/leastOf(untraced.perCell).mean()-1))

	m.set("input.label_ws_mb", "MB", float64(e.labelWS)/(1<<20))
	for _, s := range e.stores {
		lu, bu := samplerCosts(s.g, s.seed)
		m.set("sampler.labels_us_per_world", "us", lu)
		m.set("sampler.bitmap_us_per_world", "us", bu)
		break
	}
}

// samplerCosts times World.ComponentLabels and World.FillEdgeBitmap on
// g's world stream, per world, over at least 32 worlds and 100 ms each.
func samplerCosts(g *graph.Uncertain, seed uint64) (labelsUS, bitmapUS float64) {
	n := g.NumNodes()
	uf := graph.NewUnionFind(n)
	lab := make([]int32, n)
	bits := make([]uint64, sampler.EdgeBitmapWords(g.NumEdges()))
	per := func(fn func(w sampler.World)) float64 {
		t0 := time.Now()
		i := 0
		for ; i < 32 || time.Since(t0) < 100*time.Millisecond; i++ {
			fn(sampler.World{G: g, Seed: seed, Index: uint64(i)})
		}
		return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(i)
	}
	labelsUS = per(func(w sampler.World) { w.ComponentLabels(uf, lab) })
	bitmapUS = per(func(w sampler.World) { w.FillEdgeBitmap(bits) })
	return labelsUS, bitmapUS
}

// scorer scores clusterings on world samples independent of the
// estimator's, one per graph, keeping the samples of the last keep graphs.
type scorer struct {
	keep    int
	samples map[*graph.Uncertain]*worldstore.Store
}

func newScorer(keep int) *scorer {
	return &scorer{keep: keep, samples: map[*graph.Uncertain]*worldstore.Store{}}
}

// score returns p_min and p_avg of cl, a clustering of g, over scoreWorlds
// worlds. seed is the store seed of the estimator that clustered g; the
// sample of g is drawn under a seed derived from the first one given.
func (s *scorer) score(cl *core.Clustering, g *graph.Uncertain, seed uint64) (pmin, pavg float64) {
	ws, ok := s.samples[g]
	if !ok {
		if len(s.samples) >= s.keep {
			clear(s.samples)
		}
		ws = worldstore.New(g, seed^0x5c0e)
		s.samples[g] = ws
	}
	return metrics.PMin(cl, ws, scoreWorlds), metrics.PAvg(cl, ws, scoreWorlds)
}

// quality scores a fixed set of clusterings — every cell under every
// pass seed — on an independent world sample, so pmin_mean and pavg_mean repeat exactly for a seed whatever
// the timed loop reached. pmin_mean averages the MCP clusterings, whose
// objective it is; ACP leaves p_min near 0 on the sparse graphs.
// pavg_mean averages all.
func (e *clusterEnv) quality(ctx context.Context, rep *report, ph *phase) error {
	var pmin, pavg float64
	count, mcps := 0, 0
	// Cells are grouped by store, so one sample at a time suffices.
	sc := newScorer(1)
	add := func(c cell, s storeRef, cls []*core.Clustering) {
		var cmin, cavg float64
		for _, cl := range cls {
			p, a := sc.score(cl, s.g, s.seed)
			cmin += p
			cavg += a
		}
		if c.algo == "mcp" {
			pmin += cmin
			mcps += len(cls)
		}
		pavg += cavg
		count += len(cls)
		rep.note("quality %v pmin=%.4f pavg=%.4f", c, cmin/float64(len(cls)), cavg/float64(len(cls)))
	}
	for ci, c := range e.cells {
		s := e.stores[c.store]
		var cls []*core.Clustering
		for si := range e.seeds {
			cl, ok := ph.results[[2]int{ci, si}]
			if !ok {
				res := runOp(ctx, s, c, e.opSeed(s, si), timedPar, nil)
				if res.err != nil {
					return fmt.Errorf("scoring op %v: %v", c, res.err)
				}
				rep.attempted++
				e.gate(rep, c, res.cl)
				cl = res.cl
				ph.results[[2]int{ci, si}] = cl
			}
			cls = append(cls, cl)
		}
		add(c, s, cls)
	}
	rep.metrics.set("pmin_mean", "prob", pmin/float64(mcps))
	rep.metrics.set("pavg_mean", "prob", pavg/float64(count))
	rep.note("quality clusterings=%d score_worlds=%d", count, scoreWorlds)
	return nil
}

// parityGate re-runs the first cell under the first seed with core and
// the estimator on parityPar workers: the clustering must be
// bit-identical to the single-worker run's.
func (e *clusterEnv) parityGate(ctx context.Context, rep *report, ph *phase) {
	want := ph.results[[2]int{0, 0}]
	s := e.stores[e.cells[0].store]
	res := runOp(ctx, s, e.cells[0], e.opSeed(s, 0), parityPar(), nil)
	if res.err != nil {
		rep.check(false, "parity re-run %v: %v", e.cells[0], res.err)
		return
	}
	rep.check(sameClustering(want, res.cl), "parity: %v differs between Parallelism=%d and %d", e.cells[0], timedPar, parityPar())
}

// parityPar is the worker count of the determinism re-run: one per CPU,
// and at least two.
func parityPar() int { return max(2, runtime.NumCPU()) }

// sameClustering reports bit-identity of two clusterings.
func sameClustering(a, b *core.Clustering) bool {
	if a == nil || b == nil || len(a.Centers) != len(b.Centers) || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Centers {
		if a.Centers[i] != b.Centers[i] {
			return false
		}
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] || math.Float64bits(a.Prob[i]) != math.Float64bits(b.Prob[i]) {
			return false
		}
	}
	return true
}
