package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ucgraph/internal/graph"
	"ucgraph/internal/influence"
	"ucgraph/internal/knn"
	"ucgraph/internal/metrics"
	"ucgraph/internal/worldstore"
)

// WorkerGraph is one graph a worker serves tallies for. Worker processes
// of one deployment are all started with the same graphs and seed, so that
// every worker — and the coordinator — addresses the identical world
// stream.
type WorkerGraph struct {
	Name  string
	Graph *graph.Uncertain
	Seed  uint64
}

// WorkerOptions configures a Worker. The zero value selects the documented
// defaults.
type WorkerOptions struct {
	// MaxWorlds caps the highest world index a single tally request may
	// reach (default 1 << 20): a misbehaving coordinator cannot make a
	// worker materialize an unbounded stream.
	MaxWorlds int

	// TallyCacheBytes budgets the worker's per-range tally cache
	// (default 64 MiB; negative disables it). Repeated rounds over the
	// same (kind, graph, centers, range) — min-partial scoring loops,
	// greedy influence sweeps, hedged duplicates — are answered from
	// warm int32s instead of rescanning worlds.
	TallyCacheBytes int64

	// WorldCacheDir, when non-empty, attaches a disk tier to every served
	// graph's world store (the -worldcache flag): blocks evicted under
	// the memory budget spill to WorldCacheDir/<graph name>/ and a
	// restarted worker pointed at the same directory resumes hot.
	// Tallies are bit-identical with or without the cache.
	WorldCacheDir string

	// SlowTally, when positive, logs any tally request that takes at
	// least this long as a structured one-line JSON record (via SlowLog),
	// carrying the coordinator's trace ID when the request arrived with
	// flagTrace — so a slow worker correlates with the coordinator's
	// trace across machine boundaries. The -slow-query flag.
	SlowTally time.Duration

	// SlowLog receives slow-tally records; nil uses slog.Default().
	SlowLog *slog.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.MaxWorlds <= 0 {
		o.MaxWorlds = 1 << 20
	}
	if o.TallyCacheBytes == 0 {
		o.TallyCacheBytes = 64 << 20
	}
	return o
}

// errUnknownGraph marks tally requests naming a graph the worker does not
// serve.
var errUnknownGraph = errors.New("shard: unknown graph")

// workerGraph is the worker-side state of one served graph.
type workerGraph struct {
	name  string
	g     *graph.Uncertain
	seed  uint64
	store *worldstore.Store
}

// Worker serves the shard wire protocol over a private world store per
// graph: GET /shard/v1/ping for identity, POST /shard/v2/stream for the
// binary frame protocol that carries tallies, GET /healthz for plain
// liveness probes. It holds no assignment state — any worker can serve any
// range of the stream — which is what lets the coordinator re-stripe a
// departed worker's blocks onto the survivors and hedge stragglers without
// coordination. Safe for concurrent use; the store coordinates concurrent
// block materialization internally.
type Worker struct {
	opts   WorkerOptions
	graphs map[string]*workerGraph
	mux    *http.ServeMux
	cache  *tallyCache

	requests         atomic.Uint64
	failures         atomic.Uint64
	worlds           atomic.Uint64 // worlds actually tallied (cache hits excluded)
	cacheHits        atomic.Uint64
	cacheMiss        atomic.Uint64
	integrityRejects atomic.Uint64 // REQ frames failing their CRC32-C check

	// Drain state: once draining flips, new streams and new tally work are
	// refused while counted in-flight requests run to completion; Drain
	// then severs the registered hijacked streams (which
	// http.Server.Shutdown cannot see).
	draining atomic.Bool
	inflight atomic.Int64
	smu      sync.Mutex
	streams  map[*streamConn]struct{}
}

// NewWorker builds a Worker over the given graphs. Each graph gets a
// private (non-registry) world store: worker processes are the unit of
// memory isolation in a sharded deployment, so the store deliberately does
// not share blocks with other in-process consumers.
func NewWorker(graphs []WorkerGraph, opts WorkerOptions) (*Worker, error) {
	if len(graphs) == 0 {
		return nil, errors.New("shard: worker with no graphs to serve")
	}
	w := &Worker{
		opts:    opts.withDefaults(),
		graphs:  make(map[string]*workerGraph, len(graphs)),
		mux:     http.NewServeMux(),
		streams: make(map[*streamConn]struct{}),
	}
	if w.opts.TallyCacheBytes > 0 {
		w.cache = &tallyCache{max: w.opts.TallyCacheBytes, entries: make(map[string]*TallyResponse)}
	}
	for _, gc := range graphs {
		if gc.Name == "" {
			return nil, errors.New("shard: worker graph with empty name")
		}
		if gc.Graph == nil {
			return nil, fmt.Errorf("shard: worker graph %q is nil", gc.Name)
		}
		if _, dup := w.graphs[gc.Name]; dup {
			return nil, fmt.Errorf("shard: duplicate worker graph name %q", gc.Name)
		}
		store := worldstore.New(gc.Graph, gc.Seed)
		if w.opts.WorldCacheDir != "" {
			dir := filepath.Join(w.opts.WorldCacheDir, gc.Name)
			if err := store.AttachCache(dir); err != nil {
				return nil, fmt.Errorf("shard: worker graph %q: %w", gc.Name, err)
			}
		}
		w.graphs[gc.Name] = &workerGraph{
			name:  gc.Name,
			g:     gc.Graph,
			seed:  gc.Seed,
			store: store,
		}
	}
	w.mux.HandleFunc("GET "+PathPing, w.handlePing)
	w.mux.HandleFunc("POST "+PathStream, w.handleStream)
	w.mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		if w.draining.Load() {
			writeJSON(rw, http.StatusServiceUnavailable, map[string]any{"status": "draining", "graphs": len(w.graphs)})
			return
		}
		writeJSON(rw, http.StatusOK, map[string]any{"status": "ok", "graphs": len(w.graphs)})
	})
	return w, nil
}

// trackStream registers a hijacked v2 stream for drain-time teardown.
func (w *Worker) trackStream(c *streamConn) {
	w.smu.Lock()
	w.streams[c] = struct{}{}
	w.smu.Unlock()
}

func (w *Worker) untrackStream(c *streamConn) {
	w.smu.Lock()
	delete(w.streams, c)
	w.smu.Unlock()
}

// Drain performs a graceful shutdown of the worker's tally surface:
// /healthz flips to 503 "draining" (so load balancers stop routing), new
// streams and new tally frames are refused, in-flight requests — the open
// scatter rounds the coordinator is waiting on — run to completion and
// flush their response frames, and only then are the hijacked v2 streams
// severed. Returns ctx.Err() if the deadline expires first, with the
// streams severed regardless: a drain timeout degrades to today's hard
// close, never a hang.
func (w *Worker) Drain(ctx context.Context) error {
	w.draining.Store(true)
	err := awaitZero(ctx, &w.inflight)
	w.smu.Lock()
	for c := range w.streams {
		c.nc.Close()
	}
	w.streams = make(map[*streamConn]struct{})
	w.smu.Unlock()
	return err
}

// awaitZero polls an in-flight counter down to zero. Polling (rather than
// a WaitGroup) sidesteps the Add-while-Wait race: requests keep arriving
// and being refused while the counter drains.
func awaitZero(ctx context.Context, n *atomic.Int64) error {
	for {
		if n.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(v)
}

func (w *Worker) fail(rw http.ResponseWriter, code int, msg string) {
	w.failures.Add(1)
	writeJSON(rw, code, errorResponse{Error: msg})
}

func (w *Worker) handlePing(rw http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(w.graphs))
	for name := range w.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := PingResponse{Graphs: make([]PingGraph, 0, len(names))}
	for _, name := range names {
		wg := w.graphs[name]
		resp.Graphs = append(resp.Graphs, PingGraph{
			Name:        name,
			Nodes:       wg.g.NumNodes(),
			Edges:       wg.g.NumEdges(),
			Seed:        wg.seed,
			BlockWorlds: wg.store.BlockWorlds(),
			Worlds:      wg.store.Worlds(),
		})
	}
	writeJSON(rw, http.StatusOK, resp)
}

// validRanges checks the request's world ranges: ascending, disjoint,
// non-empty, under the MaxWorlds cap. Returns the total world count.
func (w *Worker) validRanges(ranges []Range) (int, error) {
	if len(ranges) == 0 {
		return 0, errors.New("empty \"ranges\"")
	}
	total, prev := 0, 0
	for i, r := range ranges {
		if r.Lo < 0 || r.Hi <= r.Lo {
			return 0, fmt.Errorf("invalid range [%d, %d)", r.Lo, r.Hi)
		}
		if i > 0 && r.Lo < prev {
			return 0, fmt.Errorf("ranges not ascending/disjoint at [%d, %d)", r.Lo, r.Hi)
		}
		if r.Hi > w.opts.MaxWorlds {
			return 0, fmt.Errorf("range [%d, %d) exceeds the worker world cap %d", r.Lo, r.Hi, w.opts.MaxWorlds)
		}
		total += r.Worlds()
		prev = r.Hi
	}
	return total, nil
}

func validNodes(g *graph.Uncertain, field string, nodes []int32) error {
	n := int32(g.NumNodes())
	for _, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("%q node %d out of range [0, %d)", field, v, n)
		}
	}
	return nil
}

// badRequestError marks validation failures inside the kind handlers.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badReq(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// serveTally validates req and computes its tallies range by range,
// consulting the per-range cache. The second result reports whether every
// range was served from cache; failure accounting happens here exactly
// once per request. When traced, it also returns the worker-side
// execution annotation shipped back on a flagTrace response: wall time,
// worlds tallied, per-request cache hits/misses and the store tier
// activity observed while serving the request. The annotation is pure
// observation — traced and untraced requests run the identical code
// path and produce byte-identical tallies.
func (w *Worker) serveTally(ctx context.Context, req *TallyRequest, traced bool) (*TallyResponse, bool, workerAnnot, error) {
	w.requests.Add(1)
	var annot workerAnnot
	var start time.Time
	if traced {
		start = time.Now()
	}
	resp, cached, err := w.tally(ctx, req, traced, &annot)
	if err != nil {
		w.failures.Add(1)
		return nil, false, annot, err
	}
	if traced {
		annot.ElapsedNS = uint64(time.Since(start))
		annot.Worlds = uint64(resp.Worlds)
	}
	return resp, cached, annot, nil
}

func (w *Worker) tally(ctx context.Context, req *TallyRequest, traced bool, annot *workerAnnot) (*TallyResponse, bool, error) {
	wg, ok := w.graphs[req.Graph]
	if !ok {
		return nil, false, fmt.Errorf("%w %q", errUnknownGraph, req.Graph)
	}
	if _, err := w.validRanges(req.Ranges); err != nil {
		return nil, false, badReq("%s", err)
	}
	if err := validTally(wg, req); err != nil {
		return nil, false, err
	}
	if traced {
		// Tier attribution by Stats snapshot diff. On a store shared by
		// concurrent requests the delta covers the whole window, not just
		// this request's share — approximate by design, and documented as
		// such (docs/OPERATIONS.md); it informs operators, never
		// estimates.
		pre := wg.store.Stats()
		defer func() {
			d := wg.store.Stats().TierDelta(pre)
			annot.StoreHits = d.Hits
			annot.DiskHits = d.DiskHits
			annot.Recomputes = d.Recomputes
			annot.Materializations = d.Materializations
		}()
	}

	resp := &TallyResponse{}
	cached := true
	var keyBuf []byte
	single := *req // per-range copy for cache keys
	for _, rg := range req.Ranges {
		var key string
		if w.cache != nil {
			single.Ranges = []Range{rg}
			kb, err := encodeRequestBody(keyBuf[:0], &single)
			if err != nil {
				return nil, false, badReq("%s", err)
			}
			keyBuf = kb
			key = string(kb)
			if part := w.cache.get(key); part != nil {
				w.cacheHits.Add(1)
				annot.CacheHits++
				mergeTally(resp, part, req.Kind)
				continue
			}
			w.cacheMiss.Add(1)
			annot.CacheMiss++
		}
		cached = false
		part, err := w.rangeTally(ctx, wg, req, rg)
		if err != nil {
			return nil, false, err
		}
		w.worlds.Add(uint64(rg.Worlds()))
		if w.cache != nil {
			w.cache.put(key, part)
		}
		mergeTally(resp, part, req.Kind)
	}
	return resp, cached, nil
}

// noteSlowTally emits the structured slow-tally record when the request
// crossed the SlowTally threshold. ref is the coordinator's trace ref
// (zero when the request was untraced).
func (w *Worker) noteSlowTally(req *TallyRequest, ref traceRef, elapsed time.Duration, err error) {
	if w.opts.SlowTally <= 0 || elapsed < w.opts.SlowTally {
		return
	}
	lg := w.opts.SlowLog
	if lg == nil {
		lg = slog.Default()
	}
	attrs := []any{
		slog.String("graph", req.Graph),
		slog.String("kind", req.Kind),
		slog.Int("ranges", len(req.Ranges)),
		slog.Duration("elapsed", elapsed),
	}
	if ref.TraceID != 0 {
		attrs = append(attrs,
			slog.String("trace_id", fmt.Sprintf("%016x", ref.TraceID)),
			slog.Uint64("parent_span", ref.SpanID))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	lg.Warn("slow tally", attrs...)
}

// validTally checks the kind-specific request fields, once per request.
func validTally(wg *workerGraph, req *TallyRequest) error {
	switch req.Kind {
	case KindConnected, KindWithin:
		if len(req.Centers) == 0 {
			return badReq("kind %q needs \"centers\"", req.Kind)
		}
		if err := validNodes(wg.g, "centers", req.Centers); err != nil {
			return badReq("%s", err)
		}
		if req.Kind == KindWithin && req.Depth < 0 {
			return badReq("kind %q needs a non-negative \"depth\"", req.Kind)
		}
	case KindPair:
		if err := validNodes(wg.g, "u/v", []int32{req.U, req.V}); err != nil {
			return badReq("%s", err)
		}
	case KindDistances:
		if err := validNodes(wg.g, "source", []int32{req.Source}); err != nil {
			return badReq("%s", err)
		}
	case KindSpread:
		if len(req.Seeds) == 0 {
			return badReq("kind %q needs \"seeds\"", req.Kind)
		}
		fallthrough
	case KindMarginal:
		if err := validNodes(wg.g, "seeds", req.Seeds); err != nil {
			return badReq("%s", err)
		}
		if err := validNodes(wg.g, "candidates", req.Candidates); err != nil {
			return badReq("%s", err)
		}
	case KindReliability:
		// Empty seeds means all-terminal (every node), mirroring the
		// empty-candidates convention of KindMarginal.
		if err := validNodes(wg.g, "seeds", req.Seeds); err != nil {
			return badReq("%s", err)
		}
	case KindComponents, KindLargest:
		// Range-only kinds: nothing beyond the ranges to validate.
	default:
		return badReq("unknown tally kind %q", req.Kind)
	}
	return nil
}

// rangeTally computes one kind's tallies over a single world range. The
// result is immutable once returned (it may be shared by the cache), and
// merging per-range results is plain integer addition — which is the whole
// bit-identity argument: integer sums are order-free, so any partitioning
// of [lo, hi) into ranges, workers, retries and hedges folds to the same
// totals.
func (w *Worker) rangeTally(ctx context.Context, wg *workerGraph, req *TallyRequest, rg Range) (*TallyResponse, error) {
	return rangeTally(ctx, wg.g, wg.store, req, rg)
}

// rangeTally is the transport-free tally kernel: one kind over one world
// range of the (graph, seed) stream behind store. It is shared by the
// worker (the v2 stream) and by the coordinator's audit referee,
// which recomputes a divergent group locally over the same stream — the
// two sides agreeing byte-for-byte is the audit's ground truth.
func rangeTally(ctx context.Context, g *graph.Uncertain, store *worldstore.Store, req *TallyRequest, rg Range) (*TallyResponse, error) {
	resp := &TallyResponse{Worlds: rg.Worlds()}
	switch req.Kind {
	case KindConnected, KindWithin:
		n := g.NumNodes()
		counts := make([][]int32, len(req.Centers))
		buf := make([]int32, len(req.Centers)*n)
		lo := make([]int, len(req.Centers))
		for j := range counts {
			counts[j] = buf[j*n : (j+1)*n : (j+1)*n]
			lo[j] = rg.Lo
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if req.Kind == KindConnected {
			store.CountConnectedFromMulti(req.Centers, lo, rg.Hi, counts)
		} else {
			store.CountWithinMulti(req.Centers, req.Depth, lo, rg.Hi, counts)
		}
		resp.Counts = counts
	case KindPair:
		var cnt int64
		if err := store.ScanCtx(ctx, rg.Lo, rg.Hi, func(_ int, lab []int32) {
			if lab[req.U] == lab[req.V] {
				cnt++
			}
		}); err != nil {
			return nil, err
		}
		resp.Count = cnt
	case KindDistances:
		dd, err := knn.SampleRangeCtx(ctx, store, req.Source, rg.Lo, rg.Hi)
		if err != nil {
			return nil, err
		}
		n := g.NumNodes()
		resp.Hist = make([][]DistCount, n)
		resp.Unreachable = make([]int64, n)
		for v := 0; v < n; v++ {
			buckets := make([]DistCount, 0, len(dd.Hist[v]))
			for d, c := range dd.Hist[v] {
				buckets = append(buckets, DistCount{D: d, N: int64(c)})
			}
			sort.Slice(buckets, func(i, j int) bool { return buckets[i].D < buckets[j].D })
			resp.Hist[v] = buckets
			resp.Unreachable[v] = int64(dd.Unreachable[v])
		}
	case KindSpread:
		total, err := influence.SpreadTallyCtx(ctx, store, req.Seeds, rg.Lo, rg.Hi)
		if err != nil {
			return nil, err
		}
		resp.Totals = []int64{total}
	case KindMarginal:
		candidates := req.Candidates
		if len(candidates) == 0 {
			// Empty candidates means "all nodes" (see KindMarginal): the
			// initial greedy round asks about every node, and the
			// convention keeps n node IDs off the wire.
			candidates = make([]graph.NodeID, g.NumNodes())
			for v := range candidates {
				candidates[v] = graph.NodeID(v)
			}
		}
		totals, err := influence.MarginalTallyCtx(ctx, store, req.Seeds, candidates, rg.Lo, rg.Hi)
		if err != nil {
			return nil, err
		}
		resp.Totals = totals
	case KindReliability:
		var (
			tally int64
			err   error
		)
		if len(req.Seeds) == 0 {
			tally, err = metrics.AllTerminalReliabilityTallyCtx(ctx, store, rg.Lo, rg.Hi)
		} else {
			tally, err = metrics.SetReliabilityTallyCtx(ctx, store, req.Seeds, rg.Lo, rg.Hi)
		}
		if err != nil {
			return nil, err
		}
		resp.Totals = []int64{tally}
	case KindComponents:
		tally, err := metrics.ComponentsTallyCtx(ctx, store, rg.Lo, rg.Hi)
		if err != nil {
			return nil, err
		}
		resp.Totals = []int64{tally}
	case KindLargest:
		tally, err := metrics.LargestComponentTallyCtx(ctx, store, rg.Lo, rg.Hi)
		if err != nil {
			return nil, err
		}
		resp.Totals = []int64{tally}
	}
	return resp, nil
}

// mergeTally folds one per-range result into the accumulator. dst starts
// zero-valued; src is never mutated (it may live in the cache).
func mergeTally(dst, src *TallyResponse, kind string) {
	dst.Worlds += src.Worlds
	switch kind {
	case KindConnected, KindWithin:
		if dst.Counts == nil {
			rows, cols := len(src.Counts), 0
			if rows > 0 {
				cols = len(src.Counts[0])
			}
			buf := make([]int32, rows*cols)
			dst.Counts = make([][]int32, rows)
			for j := range dst.Counts {
				dst.Counts[j] = buf[j*cols : (j+1)*cols : (j+1)*cols]
			}
		}
		for j, row := range src.Counts {
			out := dst.Counts[j]
			for i, c := range row {
				out[i] += c
			}
		}
	case KindPair:
		dst.Count += src.Count
	case KindSpread, KindMarginal, KindReliability, KindComponents, KindLargest:
		if dst.Totals == nil {
			dst.Totals = make([]int64, len(src.Totals))
		}
		for i, t := range src.Totals {
			dst.Totals[i] += t
		}
	case KindDistances:
		if dst.Hist == nil {
			dst.Hist = make([][]DistCount, len(src.Hist))
			dst.Unreachable = make([]int64, len(src.Unreachable))
		}
		for v, buckets := range src.Hist {
			dst.Hist[v] = mergeBuckets(dst.Hist[v], buckets)
		}
		for v, u := range src.Unreachable {
			dst.Unreachable[v] += u
		}
	}
}

// mergeBuckets merges two distance histograms sorted ascending by D.
func mergeBuckets(a, b []DistCount) []DistCount {
	if len(a) == 0 {
		return append([]DistCount(nil), b...)
	}
	out := make([]DistCount, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].D < b[j].D:
			out = append(out, a[i])
			i++
		case a[i].D > b[j].D:
			out = append(out, b[j])
			j++
		default:
			out = append(out, DistCount{D: a[i].D, N: a[i].N + b[j].N})
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// tallyCache is the worker's per-range tally cache: FIFO eviction under a
// byte budget, keyed by the canonical binary encoding of a single-range
// request (so the key already covers kind, graph, centers/seeds, depth and
// range — see encodeRequestBody). Values are immutable.
type tallyCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*TallyResponse
	order   []string
	head    int
}

func (c *tallyCache) get(key string) *TallyResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key]
}

func (c *tallyCache) put(key string, resp *TallyResponse) {
	size := int64(len(key)) + respBytes(resp)
	if size > c.max {
		return // larger than the whole budget; never admit
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[key]; dup {
		return
	}
	for c.bytes+size > c.max && c.head < len(c.order) {
		old := c.order[c.head]
		c.head++
		if ev, ok := c.entries[old]; ok {
			delete(c.entries, old)
			c.bytes -= int64(len(old)) + respBytes(ev)
		}
	}
	if c.head > 1024 && c.head*2 > len(c.order) {
		c.order = append(c.order[:0], c.order[c.head:]...)
		c.head = 0
	}
	c.entries[key] = resp
	c.order = append(c.order, key)
	c.bytes += size
}

// respBytes approximates a response's resident size for the cache budget.
func respBytes(r *TallyResponse) int64 {
	var b int64 = 64
	for _, row := range r.Counts {
		b += int64(len(row))*4 + 24
	}
	b += int64(len(r.Totals)) * 8
	for _, h := range r.Hist {
		b += int64(len(h))*12 + 24
	}
	b += int64(len(r.Unreachable)) * 8
	return b
}

// WorkerCounters are the worker's observability counters.
type WorkerCounters struct {
	Requests  uint64
	Failures  uint64
	Worlds    uint64 // worlds tallied by scanning (cache hits excluded)
	CacheHits uint64
	CacheMiss uint64
	// IntegrityRejects counts REQ frames rejected for a CRC32-C mismatch
	// before decoding (each was answered with an integrity error frame, so
	// the coordinator re-sent rather than trusting mangled parameters).
	IntegrityRejects uint64
}

// Counters returns the worker's request counters.
func (w *Worker) Counters() WorkerCounters {
	return WorkerCounters{
		Requests:         w.requests.Load(),
		Failures:         w.failures.Load(),
		Worlds:           w.worlds.Load(),
		CacheHits:        w.cacheHits.Load(),
		CacheMiss:        w.cacheMiss.Load(),
		IntegrityRejects: w.integrityRejects.Load(),
	}
}
