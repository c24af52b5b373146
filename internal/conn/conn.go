// Package conn estimates connection probabilities in uncertain graphs.
//
// The connection probability Pr(u ~ v) is the probability that u and v lie
// in the same connected component of a random possible world; the
// d-connection probability Pr(u ~d v) additionally requires hop distance at
// most d (Section 3.4 of the paper). Exact computation is #P-complete, so
// the practical estimator is Monte Carlo sampling over possible worlds
// (Equations 3–5), with the progressive sample-size schedules of Section 4
// (Equations 9–10).
//
// The package provides:
//
//   - ContextOracle: the interface consumed by the clustering algorithms in
//     internal/core. An oracle answers "estimate Pr(c ~d u) for every u",
//     for one center (FromCenterCtx) or a whole candidate batch
//     (FromCentersCtx).
//   - MonteCarlo: the sampling estimator (the real implementation), built
//     on the shared world store of internal/worldstore. It is safe for
//     concurrent use and internally parallel, with estimates that are
//     bit-identical for every worker count and memory budget.
//   - Exact: exact enumeration of all 2^m worlds for tiny graphs — the
//     testing oracle that theorems are checked against.
//   - Sample-size formulas: SampleSize (Eq. 4), MCPSamples (Eq. 9),
//     ACPSamples (Eq. 10), and the practical schedule used in Section 5.
package conn

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ucgraph/internal/graph"
	"ucgraph/internal/sampler"
	"ucgraph/internal/worldstore"
)

// Unlimited is the depth value meaning "no path-length constraint".
const Unlimited = -1

// ContextOracle answers connection-probability queries from centers to all
// nodes; it is the interface the clustering drivers of internal/core
// consume.
//
// FromCenterCtx returns estimates of Pr(c ~depth u) for every node u; depth
// < 0 (Unlimited) means the unconstrained connection probability. r is the
// Monte Carlo sample size; exact oracles ignore it. The returned slice is
// owned by the caller.
//
// FromCentersCtx is the batched form: it answers the same query for every
// center in cs, returning one estimate vector per center (each owned by the
// caller), and is where implementations amortize work across a candidate
// batch — the Monte Carlo oracle answers all centers in one pass over each
// world block instead of one full scan per center. The results must equal
// calling FromCenterCtx per center.
//
// A query aborted by ctx returns ctx's error and no estimates; cancellation
// never degrades an answer, it only withholds one. Implementations must
// tolerate concurrent calls: the clustering drivers fan queries out across
// goroutines (MonteCarlo, Exact and shard.Coordinator all qualify).
type ContextOracle interface {
	NumNodes() int
	FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error)
	FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error)
}

var (
	_ ContextOracle = (*MonteCarlo)(nil)
	_ ContextOracle = (*Exact)(nil)
)

// MonteCarlo estimates connection probabilities by sampling possible
// worlds. Unlimited-depth queries are answered from the per-world component
// labels of the shared world store (one O(n) scan per world per query);
// depth-limited queries run depth-bounded BFS over the same world stream —
// batched queries against the store's per-world edge bitmaps (every coin
// of a world evaluated once for the whole center batch), single-center
// queries on the implicit stream directly. Limited and unlimited views are
// mutually consistent — and consistent with every other consumer of the
// same (graph, seed) store (k-NN, influence, metrics, ...).
//
// Because worlds are deterministic and shared, per-center tally vectors are
// cached and extended incrementally when later phases of the progressive
// sampling schedule request more samples for a center already queried —
// the dominant cost saver for the guessing schedules of Algorithms 2-3.
// This is the repository's one tally cache: an estimator built with
// NewMonteCarloWithCounter keeps the same cache and only hands the counting
// of missing worlds to its CountFunc (shard.Coordinator scatters them to
// its workers).
//
// MonteCarlo is safe for concurrent use: the tally cache is mutex-guarded
// and each tally serializes its own extensions. FromCenter is internally
// parallel — the per-world tally accumulation is sharded across a worker
// pool (see SetParallelism) with per-worker scratch buffers merged at the
// end — and FromCenters shards a candidate batch across the same pool,
// each worker scanning world blocks once for its whole center subset. The
// per-world counts are integers, so the totals — and therefore the
// returned estimates — are bit-identical for every worker count and every
// store memory budget: same seed means same estimates, serial or parallel,
// bounded or unbounded.
//
// One boundary on that guarantee: when the tally cache overflows maxCache
// entries (only possible when a run touches more distinct (center, depth)
// keys than fit in ~64 MiB), concurrent insertions make the FIFO eviction
// order scheduling-dependent, so a re-queried center may answer at the
// requested precision instead of a previously cached higher precision.
// Every answer is still an exact tally over the deterministic world
// stream; only the precision tier served can vary under eviction
// pressure.
type MonteCarlo struct {
	g     *graph.Uncertain
	seed  uint64
	store *worldstore.Store

	par atomic.Int32 // configured worker count; <= 0 selects GOMAXPROCS

	// shardSem bounds the extra goroutines spawned across ALL concurrent
	// FromCenter/FromCenters extensions, so callers that already fan
	// queries out do not multiply into Parallelism^2 workers. Sized once at
	// first use.
	semOnce  sync.Once
	shardSem chan struct{}

	// reachPool recycles depth-limited BFS scratch; ReachCounter is
	// single-goroutine, so each worker checks one out for the duration of
	// its shard.
	reachPool sync.Pool

	// count, when non-nil, is offered every extension before the local
	// store counts it (see NewMonteCarloWithCounter).
	count CountFunc

	mu         sync.Mutex // guards cache, cacheOrder and cacheHead
	cache      map[cacheKey]*centerTally
	cacheOrder []cacheKey // FIFO ring: entries [cacheHead..] ++ [..cacheHead) in insertion order
	cacheHead  int        // index of the oldest entry once the ring is full
	maxCache   int
}

// CountFunc counts the worlds of pending tallies somewhere other than the
// local store. It adds, for every center cs[i], the connection counts of
// worlds [lo[i], hi) at depth (< 0 for Unlimited) into counts[i], the
// same integers worldstore.CountConnectedFromMulti and CountWithinMulti
// would add. ok=false declines the call and the estimator counts locally.
// counts is written only when the whole call succeeds: on an error every
// tally stays at its prior world count, and the query fails with that
// error.
type CountFunc func(ctx context.Context, cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) (ok bool, err error)

// cacheKey identifies a cached center query.
type cacheKey struct {
	c     graph.NodeID
	depth int
}

// batchSlot tracks one distinct (center, depth) key of a FromCenters batch:
// its tally and the output positions it answers.
type batchSlot struct {
	key   cacheKey
	tally *centerTally
	outAt []int
}

// centerTally holds per-node connection counts over the first rDone worlds.
// Its mutex serializes extensions (and snapshotting) of one center's tally,
// so concurrent queries for the same center never double-count a world.
type centerTally struct {
	mu     sync.Mutex
	counts []int32
	rDone  int
}

// NewMonteCarlo returns an estimator over g's possible worlds under seed.
// The world labels come from the shared store for (g, seed), so every
// estimator — and every other world consumer — built from the same pair
// observes the same worlds.
func NewMonteCarlo(g *graph.Uncertain, seed uint64) *MonteCarlo {
	return NewMonteCarloWithCounter(g, seed, nil)
}

// NewMonteCarloWithCounter is NewMonteCarlo with a pluggable world counter:
// every query that needs more worlds asks count once for each pending
// tally's whole missing range, and counts locally when count declines.
// The tally cache, locking and estimate arithmetic stay here, so the
// estimates are bit-identical whoever counts. A nil count is NewMonteCarlo.
func NewMonteCarloWithCounter(g *graph.Uncertain, seed uint64, count CountFunc) *MonteCarlo {
	n := g.NumNodes()
	// Bound the tally cache to ~64 MiB (4 bytes per node per entry).
	maxCache := 64 << 20 / (4 * n)
	if maxCache < 64 {
		maxCache = 64
	}
	mc := &MonteCarlo{
		g:        g,
		seed:     seed,
		store:    worldstore.Shared(g, seed),
		count:    count,
		cache:    make(map[cacheKey]*centerTally),
		maxCache: maxCache,
	}
	mc.reachPool.New = func() any { return sampler.NewReachCounter(g, seed) }
	return mc
}

// SetParallelism sets the number of workers FromCenter and FromCenters
// shard work across. p <= 0 (the default) selects GOMAXPROCS; p == 1
// forces serial accumulation. Estimates do not depend on the setting.
// Configure it before the first query: the global shard-worker budget is
// sized once, at first use, to max(p, GOMAXPROCS), so later raises beyond
// that budget only take partial effect.
func (mc *MonteCarlo) SetParallelism(p int) {
	mc.par.Store(int32(p))
}

// sem returns the shard-worker token bucket, sizing it on first use.
func (mc *MonteCarlo) sem() chan struct{} {
	mc.semOnce.Do(func() {
		capacity := mc.Parallelism()
		if g := runtime.GOMAXPROCS(0); capacity < g {
			capacity = g
		}
		mc.shardSem = make(chan struct{}, capacity)
		for i := 0; i < capacity; i++ {
			mc.shardSem <- struct{}{}
		}
	})
	return mc.shardSem
}

// Parallelism returns the effective worker count.
func (mc *MonteCarlo) Parallelism() int {
	if p := int(mc.par.Load()); p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// NumNodes returns the number of nodes of the underlying graph.
func (mc *MonteCarlo) NumNodes() int { return mc.g.NumNodes() }

// Graph returns the underlying graph.
func (mc *MonteCarlo) Graph() *graph.Uncertain { return mc.g }

// WorldsMaterialized returns how many worlds of the shared store's stream
// have been requested so far (observability for tests and progress
// reporting).
func (mc *MonteCarlo) WorldsMaterialized() int { return mc.store.Worlds() }

// Store exposes the underlying shared world store (used by metrics and the
// companion queries to compute statistics over the same worlds).
func (mc *MonteCarlo) Store() *worldstore.Store { return mc.store }

// lookupTally returns the cached tally for key, inserting an empty one
// (with FIFO eviction) if absent. Eviction treats cacheOrder as a ring:
// once full, the slot of the evicted oldest entry is reused for the new
// key and the head advances. (Re-slicing the front off a slice instead —
// the previous implementation — kept the evicted prefix reachable through
// the backing array, so a long-running estimator under eviction pressure
// dragged the entire key history along.) Caller must not hold mc.mu.
func (mc *MonteCarlo) lookupTally(key cacheKey) *centerTally {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	tally, ok := mc.cache[key]
	if !ok {
		if len(mc.cacheOrder) >= mc.maxCache {
			delete(mc.cache, mc.cacheOrder[mc.cacheHead])
			mc.cacheOrder[mc.cacheHead] = key
			mc.cacheHead++
			if mc.cacheHead == len(mc.cacheOrder) {
				mc.cacheHead = 0
			}
		} else {
			mc.cacheOrder = append(mc.cacheOrder, key)
		}
		tally = &centerTally{counts: make([]int32, mc.g.NumNodes())}
		mc.cache[key] = tally
	}
	return tally
}

// estimate converts a tally into the caller-owned estimate vector. The
// caller holds tally.mu.
func (tally *centerTally) estimate() []float64 {
	out := make([]float64, len(tally.counts))
	inv := 1 / float64(tally.rDone)
	for i, cnt := range tally.counts {
		out[i] = float64(cnt) * inv
	}
	return out
}

// FromCenter is the context-free FromCenterCtx (part of the public
// ucgraph.Estimator API). Tally vectors are cached per (center, depth)
// and extended when r grows; if a cached tally already covers more worlds
// than requested, the higher-precision estimate is returned.
// FromCenter may be called from many goroutines at once.
func (mc *MonteCarlo) FromCenter(c graph.NodeID, depth int, r int) []float64 {
	out, _ := mc.FromCenterCtx(context.Background(), c, depth, r)
	return out
}

// FromCenterCtx is FromCenter with cooperative cancellation: the tally
// extension advances in bounded chunks of worlds and checks ctx between
// chunks, so a cancelled query returns ctx's error quickly while leaving
// the cached tally in a consistent partial state (it exactly covers the
// worlds tallied so far, and a later query simply resumes from there). A
// call that returns nil error is bit-identical to FromCenter. It is the
// one-center case of FromCentersCtx.
func (mc *MonteCarlo) FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error) {
	out, err := mc.FromCentersCtx(ctx, []graph.NodeID{c}, depth, r)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ctxChunk is how many worlds a cancellable extension advances between
// context checks: large enough that the check is free relative to the
// per-world label scans, small enough that deadlines are honored within
// tens of milliseconds on laptop-scale graphs. Chunking never changes an
// estimate — counts are exact integer tallies whatever the boundaries.
const ctxChunk = 1024

// extendChunked brings tally up to r worlds in ctxChunk-world steps,
// checking ctx between steps. tally.rDone advances with each completed
// step, so an aborted extension leaves a valid shorter tally. The caller
// holds tally.mu.
func (mc *MonteCarlo) extendChunked(ctx context.Context, key cacheKey, tally *centerTally, r int) error {
	for tally.rDone < r {
		if err := ctx.Err(); err != nil {
			return err
		}
		next := tally.rDone + ctxChunk
		if next > r {
			next = r
		}
		mc.extend(key, tally, next)
		tally.rDone = next
	}
	return nil
}

// FromCenters answers the batched query: one estimate vector per
// center, equal to FromCenter(c, depth, r) for each c. The batch shares
// the per-center tally cache with FromCenter; centers whose tallies need
// extension are answered together, sharded across the worker pool so that
// each worker scans the world blocks ONCE for its whole center subset —
// label blocks (worldstore.CountConnectedFromMulti) for unlimited depth,
// edge-bitmap blocks (worldstore.CountWithinMulti, hashing each world's
// edge coins once for the whole subset) for depth-limited queries —
// instead of once per center. Workers write into disjoint tallies, so the
// counts — and the estimates — are bit-identical to a serial per-center
// loop for any worker count.
func (mc *MonteCarlo) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	out, _ := mc.FromCentersCtx(context.Background(), cs, depth, r)
	return out
}

// FromCentersCtx is FromCenters with cooperative cancellation, following
// the same chunked-extension contract as FromCenterCtx: ctx is checked
// between bounded chunks of worlds, an aborted batch returns ctx's error
// with every touched tally left consistent (covering exactly the worlds it
// tallied), and a nil-error call is bit-identical to FromCenters. With a
// CountFunc (NewMonteCarloWithCounter), the pending tallies are first
// offered to it whole, and counted here only when it declines.
func (mc *MonteCarlo) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	if len(cs) == 0 {
		return nil, nil
	}
	if r < 1 {
		r = 1
	}
	if depth < 0 {
		depth = Unlimited
	}

	// Deduplicate centers (duplicates share one tally) while preserving
	// first-occurrence order, so cache insertion — and hence FIFO eviction
	// order — matches the equivalent serial FromCenter loop.
	slots := make([]*batchSlot, 0, len(cs))
	byKey := make(map[cacheKey]*batchSlot, len(cs))
	for i, c := range cs {
		key := cacheKey{c: c, depth: depth}
		sl := byKey[key]
		if sl == nil {
			sl = &batchSlot{key: key}
			byKey[key] = sl
			slots = append(slots, sl)
		}
		sl.outAt = append(sl.outAt, i)
	}
	for _, sl := range slots {
		sl.tally = mc.lookupTally(sl.key)
	}

	// Lock the batch's tallies in canonical center order: concurrent
	// batches over overlapping center sets then acquire in the same order
	// and cannot deadlock. An evicted tally stays usable by goroutines
	// already holding it; it just stops being findable, so the worst case
	// is recomputed work.
	locked := make([]*batchSlot, len(slots))
	copy(locked, slots)
	sort.Slice(locked, func(i, j int) bool { return locked[i].key.c < locked[j].key.c })
	for _, sl := range locked {
		sl.tally.mu.Lock()
	}
	defer func() {
		for _, sl := range locked {
			sl.tally.mu.Unlock()
		}
	}()

	var pending []*batchSlot
	for _, sl := range slots {
		if sl.tally.rDone < r {
			pending = append(pending, sl)
		}
	}
	if len(pending) > 0 && mc.count != nil {
		// The pluggable counter gets each pending tally's whole missing
		// range in one call; it writes counts only when it succeeds.
		centers := make([]graph.NodeID, len(pending))
		lo := make([]int, len(pending))
		counts := make([][]int32, len(pending))
		for i, sl := range pending {
			centers[i], lo[i], counts[i] = sl.key.c, sl.tally.rDone, sl.tally.counts
		}
		ok, err := mc.count(ctx, centers, depth, lo, r, counts)
		if err != nil {
			return nil, err
		}
		if ok {
			for _, sl := range pending {
				sl.tally.rDone = r
			}
			pending = nil
		}
	}
	switch {
	case len(pending) == 0:
		// Every tally already covers r worlds.
	case len(pending) == 1:
		// A single center gets the world-sharded extension (depth-limited
		// extensions run implicit BFS without materializing bitmaps).
		if err := mc.extendChunked(ctx, pending[0].key, pending[0].tally, r); err != nil {
			return nil, err
		}
	default:
		// Batched extension for every depth: unlimited batches answer from
		// one label scan per world, depth-limited batches from one edge
		// bitmap per world (coins hashed once, every center's BFS tests
		// bits) — see extendBatch.
		if err := mc.extendBatchChunked(ctx, pending, r); err != nil {
			return nil, err
		}
	}

	out := make([][]float64, len(cs))
	for _, sl := range slots {
		est := sl.tally.estimate()
		for i, pos := range sl.outAt {
			if i == 0 {
				out[pos] = est
			} else {
				cp := make([]float64, len(est))
				copy(cp, est)
				out[pos] = cp
			}
		}
	}
	return out, nil
}

// extendBatchChunked advances every pending tally to r worlds in bounded
// steps, checking ctx between steps. Each step raises the laggard tallies
// to the next ctxChunk boundary via the batched extendBatch, so an aborted
// call leaves every tally consistent at its current rDone. The caller
// holds every pending tally's lock.
func (mc *MonteCarlo) extendBatchChunked(ctx context.Context, pending []*batchSlot, r int) error {
	for {
		minDone := r
		for _, sl := range pending {
			if sl.tally.rDone < minDone {
				minDone = sl.tally.rDone
			}
		}
		if minDone >= r {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		next := minDone + ctxChunk
		if next > r {
			next = r
		}
		still := pending[:0:0]
		for _, sl := range pending {
			if sl.tally.rDone < next {
				still = append(still, sl)
			}
		}
		mc.extendBatch(still, next)
	}
}

// extendBatch brings every pending tally up to r worlds of counts. The
// pending centers are split into contiguous subsets, one per worker; each
// worker answers its subset with a single blocked pass over the store —
// CountConnectedFromMulti (label scans) for unlimited depth,
// CountWithinMulti (edge-bitmap BFS; one coin evaluation per edge per
// world for the whole batch) for depth-limited queries — writing directly
// into its tallies' count vectors. No two workers touch the same tally and
// each tally's counts depend only on (store, depth, lo, r), so the result
// is independent of the partition. The caller holds every pending tally's
// lock; all slots share one depth (FromCenters batches are per-depth).
// Extra workers draw tokens from the estimator-wide semaphore, and a token
// shortage degrades to fewer, larger subsets — never to blocking.
func (mc *MonteCarlo) extendBatch(pending []*batchSlot, r int) {
	mc.store.Grow(r)
	depth := pending[0].key.depth
	workers := mc.Parallelism()
	if workers > len(pending) {
		workers = len(pending)
	}
	run := func(subset []*batchSlot) {
		cs := make([]graph.NodeID, len(subset))
		lo := make([]int, len(subset))
		counts := make([][]int32, len(subset))
		for i, sl := range subset {
			cs[i] = sl.key.c
			lo[i] = sl.tally.rDone
			counts[i] = sl.tally.counts
		}
		if depth < 0 {
			mc.store.CountConnectedFromMulti(cs, lo, r, counts)
		} else {
			mc.store.CountWithinMulti(cs, depth, lo, r, counts)
		}
		for _, sl := range subset {
			sl.tally.rDone = r
		}
	}
	if workers <= 1 {
		run(pending)
		return
	}
	// Reserve tokens for the extra workers, non-blocking.
	sem := mc.sem()
	extra := 0
	for extra < workers-1 {
		select {
		case <-sem:
			extra++
			continue
		default:
		}
		break
	}
	if extra == 0 {
		run(pending)
		return
	}
	workers = extra + 1
	chunk := (len(pending) + workers - 1) / workers
	var wg sync.WaitGroup
	spawned := 0
	for start := chunk; start < len(pending); start += chunk {
		end := start + chunk
		if end > len(pending) {
			end = len(pending)
		}
		spawned++
		wg.Add(1)
		go func(subset []*batchSlot) {
			defer wg.Done()
			defer func() { sem <- struct{}{} }()
			run(subset)
		}(pending[start:end])
	}
	// Return tokens chunk rounding left unused.
	for ; spawned < extra; spawned++ {
		sem <- struct{}{}
	}
	first := chunk
	if first > len(pending) {
		first = len(pending)
	}
	run(pending[:first])
	wg.Wait()
}

// minShardSpan is the smallest world range worth fanning out; below it the
// goroutine overhead dominates the per-world scans.
const minShardSpan = 16

// extend accumulates worlds [tally.rDone, r) into tally.counts, sharding
// the range across the worker pool. Each worker tallies its contiguous
// chunk of worlds into a private scratch buffer; the buffers are then
// merged serially. Integer addition is associative and commutative, so the
// merged counts equal the serial counts exactly, for any worker count.
//
// Extra shard goroutines draw tokens from the estimator-wide semaphore
// (the calling goroutine always works its own chunk token-free), so
// concurrent FromCenter callers share one worker budget instead of
// multiplying theirs by ours. A token shortage degrades to fewer, larger
// chunks — never to blocking. The caller holds tally.mu.
func (mc *MonteCarlo) extend(key cacheKey, tally *centerTally, r int) {
	lo, hi := tally.rDone, r
	if key.depth < 0 {
		mc.store.Grow(hi)
	}
	span := hi - lo
	workers := mc.Parallelism()
	if workers > span {
		workers = span
	}
	if workers <= 1 || span < minShardSpan {
		mc.countRange(key, lo, hi, tally.counts)
		return
	}
	// Reserve tokens for the extra workers, non-blocking.
	sem := mc.sem()
	extra := 0
	for extra < workers-1 {
		got := false
		select {
		case <-sem:
			extra++
			got = true
		default:
		}
		if !got {
			break
		}
	}
	if extra == 0 {
		mc.countRange(key, lo, hi, tally.counts)
		return
	}
	workers = extra + 1
	chunk := (span + workers - 1) / workers
	scratch := make([][]int32, 0, workers-1)
	var wg sync.WaitGroup
	// The first chunk belongs to this goroutine; the rest fan out.
	for start := lo + chunk; start < hi; start += chunk {
		end := start + chunk
		if end > hi {
			end = hi
		}
		buf := make([]int32, len(tally.counts))
		scratch = append(scratch, buf)
		wg.Add(1)
		go func(start, end int, buf []int32) {
			defer wg.Done()
			defer func() { sem <- struct{}{} }()
			mc.countRange(key, start, end, buf)
		}(start, end, buf)
	}
	first := lo + chunk
	if first > hi {
		first = hi
	}
	mc.countRange(key, lo, first, tally.counts)
	wg.Wait()
	// Return any tokens not consumed by spawned goroutines (possible when
	// chunk rounding used fewer shards than reserved).
	for spawned := len(scratch); spawned < extra; spawned++ {
		sem <- struct{}{}
	}
	for _, buf := range scratch {
		for u, cnt := range buf {
			tally.counts[u] += cnt
		}
	}
}

// countRange adds the connection counts of worlds [lo, hi) into counts:
// label scans over the shared store for unlimited depth, depth-bounded BFS
// otherwise. A depth-limited range whose edge-bitmap blocks are warm — in
// RAM (a batched FromCenters materialized them earlier) or spilled to the
// store's disk tier — is answered from those bitmaps: the single-center
// BFS tests bits instead of re-hashing every touched edge's coin, and
// loading a spilled block is a sequential read plus checksum, far cheaper
// than re-evaluating its edge coins. A cold range runs on the implicit
// stream directly, because filling bitmaps for one center has nothing to
// amortize. Warmth is a hint only: eviction between the probe and the
// scan just recomputes the block, and both paths add bit-identical counts
// (a reach set is a function of the world's edge set alone). Safe to call
// from multiple goroutines as long as each call owns its counts buffer.
func (mc *MonteCarlo) countRange(key cacheKey, lo, hi int, counts []int32) {
	if key.depth < 0 {
		mc.store.CountConnectedFrom(key.c, lo, hi, counts)
		return
	}
	if mc.store.BitsWarm(lo, hi) {
		mc.store.CountWithinMulti([]graph.NodeID{key.c}, key.depth, []int{lo}, hi, [][]int32{counts})
		return
	}
	rc := mc.reachPool.Get().(*sampler.ReachCounter)
	rc.CountWithin(key.c, key.depth, lo, hi, counts)
	mc.reachPool.Put(rc)
}

// Pair estimates Pr(u ~ v) with r samples.
func (mc *MonteCarlo) Pair(u, v graph.NodeID, r int) float64 {
	return mc.store.EstimatePair(u, v, r)
}

// PairCtx is Pair with cooperative cancellation: the world scan aborts at
// the next block boundary once ctx is done, returning ctx's error.
func (mc *MonteCarlo) PairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	return mc.store.EstimatePairCtx(ctx, u, v, r)
}

// MaxExactEdges caps the graph size accepted by Exact: enumerating 2^m
// worlds beyond ~22 edges is pointless even for tests.
const MaxExactEdges = 22

// Exact computes connection probabilities exactly by enumerating all 2^m
// possible worlds. It exists to validate the Monte Carlo estimator and the
// theoretical guarantees on tiny instances.
type Exact struct {
	g *graph.Uncertain
}

// NewExact returns an exact oracle for g, refusing graphs with more than
// MaxExactEdges edges.
func NewExact(g *graph.Uncertain) (*Exact, error) {
	if g.NumEdges() > MaxExactEdges {
		return nil, fmt.Errorf("conn: exact oracle limited to %d edges, graph has %d",
			MaxExactEdges, g.NumEdges())
	}
	return &Exact{g: g}, nil
}

// NumNodes returns the number of nodes of the underlying graph.
func (ex *Exact) NumNodes() int { return ex.g.NumNodes() }

// FromCenter returns the exact Pr(c ~depth u) for all u.
// The sample-size hint r is ignored.
func (ex *Exact) FromCenter(c graph.NodeID, depth int, _ int) []float64 {
	n := ex.g.NumNodes()
	m := ex.g.NumEdges()
	edges := ex.g.Edges()
	out := make([]float64, n)
	uf := graph.NewUnionFind(n)
	// BFS scratch for depth-limited worlds.
	dist := make([]int32, n)
	queue := make([]graph.NodeID, 0, n)
	for mask := uint64(0); mask < 1<<uint(m); mask++ {
		w := 1.0
		for i := 0; i < m; i++ {
			if mask&(1<<uint(i)) != 0 {
				w *= edges[i].P
			} else {
				w *= 1 - edges[i].P
			}
		}
		if w == 0 {
			continue
		}
		if depth < 0 {
			uf.Reset()
			for i := 0; i < m; i++ {
				if mask&(1<<uint(i)) != 0 {
					uf.Union(edges[i].U, edges[i].V)
				}
			}
			rc := uf.Find(c)
			for u := 0; u < n; u++ {
				if uf.Find(int32(u)) == rc {
					out[u] += w
				}
			}
			continue
		}
		// Depth-limited: BFS on the world's edges.
		for i := range dist {
			dist[i] = -1
		}
		dist[c] = 0
		queue = queue[:0]
		queue = append(queue, c)
		out[c] += w
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			if int(dist[u]) >= depth {
				continue
			}
			nodes, ids, _ := ex.g.NeighborSlices(u)
			for j, v := range nodes {
				if dist[v] >= 0 || mask&(1<<uint(ids[j])) == 0 {
					continue
				}
				dist[v] = dist[u] + 1
				queue = append(queue, v)
				out[v] += w
			}
		}
	}
	return out
}

// FromCenters answers the batched query by enumerating per center;
// exactness leaves nothing to amortize across the batch.
func (ex *Exact) FromCenters(cs []graph.NodeID, depth int, r int) [][]float64 {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		out[i] = ex.FromCenter(c, depth, r)
	}
	return out
}

// FromCenterCtx implements ContextOracle: ctx is checked before the
// enumeration (a single center's 2^m sweep is the indivisible unit here).
func (ex *Exact) FromCenterCtx(ctx context.Context, c graph.NodeID, depth int, r int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ex.FromCenter(c, depth, r), nil
}

// FromCentersCtx implements ContextOracle, checking ctx between centers.
func (ex *Exact) FromCentersCtx(ctx context.Context, cs []graph.NodeID, depth int, r int) ([][]float64, error) {
	out := make([][]float64, len(cs))
	for i, c := range cs {
		est, err := ex.FromCenterCtx(ctx, c, depth, r)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// Pair returns the exact Pr(u ~ v).
func (ex *Exact) Pair(u, v graph.NodeID) float64 {
	return ex.FromCenter(u, Unlimited, 0)[v]
}

// PairWithin returns the exact Pr(u ~d v).
func (ex *Exact) PairWithin(u, v graph.NodeID, depth int) float64 {
	return ex.FromCenter(u, depth, 0)[v]
}

// TreePathProbability returns Pr(u ~ v) for a tree (forest) graph, where it
// equals the product of edge probabilities along the unique u–v path, or 0
// if u and v are in different trees. It is an independent closed-form
// reference for tests; the result is unspecified if g has cycles.
func TreePathProbability(g *graph.Uncertain, u, v graph.NodeID) float64 {
	if u == v {
		return 1
	}
	// BFS from u remembering the probability product to each node.
	prod := make([]float64, g.NumNodes())
	seen := make([]bool, g.NumNodes())
	prod[u], seen[u] = 1, true
	queue := []graph.NodeID{u}
	for qi := 0; qi < len(queue); qi++ {
		x := queue[qi]
		if x == v {
			return prod[x]
		}
		nodes, _, probs := g.NeighborSlices(x)
		for j, y := range nodes {
			if !seen[y] {
				seen[y] = true
				prod[y] = prod[x] * probs[j]
				queue = append(queue, y)
			}
		}
	}
	return 0
}

// Harmonic returns H(n) = sum_{i=1..n} 1/i, the harmonic number appearing in
// the ACP bounds (Lemma 3).
func Harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}

// SampleSize returns the number of samples r that makes the Monte Carlo
// estimate of a probability >= q an (eps, delta)-approximation (Equation 4):
// r >= 3 ln(2/delta) / (eps^2 q).
func SampleSize(q, eps, delta float64) int {
	if q <= 0 || eps <= 0 || delta <= 0 {
		panic("conn: SampleSize arguments must be positive")
	}
	return int(math.Ceil(3 * math.Log(2/delta) / (eps * eps * q)))
}

// MCPSamples returns the per-iteration sample count of the MCP
// implementation (Equation 9):
// r = ceil( 12/(q eps^2) * ln( 2 n^3 (1 + floor(log_{1+gamma} 1/pL)) ) ).
func MCPSamples(q, eps, gamma, pL float64, n int) int {
	if q <= 0 || eps <= 0 || gamma <= 0 || pL <= 0 || pL > 1 || n < 1 {
		panic("conn: MCPSamples arguments out of range")
	}
	guesses := 1 + math.Floor(math.Log(1/pL)/math.Log(1+gamma))
	ln := math.Log(2 * math.Pow(float64(n), 3) * guesses)
	return int(math.Ceil(12 / (q * eps * eps) * ln))
}

// ACPSamples returns the per-iteration sample count of the ACP
// implementation (Equation 10):
// r = ceil( 12/(q^3 eps^2) * ln( 2 n^3 (1 + floor(log_{1+gamma} H(n)/pL)) ) ).
func ACPSamples(q, eps, gamma, pL float64, n int) int {
	if q <= 0 || eps <= 0 || gamma <= 0 || pL <= 0 || pL > 1 || n < 1 {
		panic("conn: ACPSamples arguments out of range")
	}
	guesses := 1 + math.Floor(math.Log(Harmonic(n)/pL)/math.Log(1+gamma))
	ln := math.Log(2 * math.Pow(float64(n), 3) * guesses)
	q3 := q * q * q
	return int(math.Ceil(12 / (q3 * eps * eps) * ln))
}

// Schedule chooses per-phase Monte Carlo sample sizes. The zero value is
// invalid; use DefaultSchedule or RigorousSchedule.
type Schedule struct {
	// Min is the floor on the sample count. Section 5 reports that starting
	// the progressive schedule from 50 samples is accurate in practice.
	Min int
	// Max caps the sample count so that tiny probability guesses do not
	// request astronomically many worlds.
	Max int
	// Coef scales the 1/q (or 1/q^3) growth: r ~ Coef/q.
	Coef float64
	// Cubic selects the ACP-style 1/q^3 growth instead of 1/q.
	Cubic bool
	// Rigorous switches to the conservative union-bound counts of
	// Equations 9–10 (still clamped to Max). Eps, Gamma, PL and N configure
	// those formulas.
	Rigorous bool
	Eps      float64
	Gamma    float64
	PL       float64
	N        int
}

// DefaultSchedule is the practical schedule of Section 5 for an n-node
// graph: start at 50 samples and grow like 1/q, capped.
func DefaultSchedule(n int) Schedule {
	return Schedule{Min: 50, Max: 4096, Coef: 8}
}

// RigorousSchedule is the Eq. (9)/(10) schedule with the given parameters.
func RigorousSchedule(n int, eps, gamma, pL float64, cubic bool) Schedule {
	return Schedule{
		Min: 1, Max: 1 << 22, Cubic: cubic,
		Rigorous: true, Eps: eps, Gamma: gamma, PL: pL, N: n,
	}
}

// Samples returns the sample count for probability guess q.
func (s Schedule) Samples(q float64) int {
	if q <= 0 {
		q = 1e-12
	}
	if q > 1 {
		q = 1
	}
	var r int
	if s.Rigorous {
		if s.Cubic {
			r = ACPSamples(q, s.Eps, s.Gamma, s.PL, s.N)
		} else {
			r = MCPSamples(q, s.Eps, s.Gamma, s.PL, s.N)
		}
	} else {
		den := q
		if s.Cubic {
			den = q * q * q
		}
		r = int(math.Ceil(s.Coef / den))
	}
	if r < s.Min {
		r = s.Min
	}
	if s.Max > 0 && r > s.Max {
		r = s.Max
	}
	return r
}
