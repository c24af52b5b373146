// Package worldstore is the shared possible-world substrate of the library:
// one memory-bounded store of sampled worlds per (graph, seed), reused by
// every consumer — the Monte Carlo connection-probability oracle, k-NN
// distance distributions, influence spread, representative-world extraction
// and the reliability metrics — so that a run pays the sampling and
// label-computation bill once instead of once per subsystem.
//
// A Store owns the implicit world stream of its (graph, seed) pair: world i
// is defined by stateless hash coins (see internal/rng and sampler.World),
// so any world can be re-materialized at any time. On top of the stream the
// store lazily materializes two per-world artifacts into block/columnar
// storage: connected-component labels (the unlimited-depth connectivity
// index) and present-edge bitmaps (one bit per edge, the substrate of
// batched depth-limited BFS — every edge coin of a world is evaluated once,
// then a whole center batch traverses bitmap tests). Worlds are grouped
// into fixed-size blocks, and within a block each artifact is stored
// world-major in one contiguous slice, so scanning a block touches memory
// sequentially. Blocks of both families are materialized on first access
// and, in bounded-memory mode, evicted least-recently-used — under one
// shared byte budget — and recomputed on the next access. Because labels
// and bitmaps are pure functions of (graph, seed, world index), eviction
// and recomputation never change an estimate: bounded and unbounded runs
// are bit-identical.
//
// Stores are safe for concurrent use by multiple consumers: block
// materialization is coordinated so exactly one goroutine computes a block
// while others wait, readers pin blocks against eviction for the duration
// of a scan, and the logical stream length only grows.
//
// The package-level Shared registry hands out one Store per (graph, seed)
// so independent consumers — built at different layers of the library —
// transparently converge on the same worlds. The registry holds weak
// references only: it neither keeps graphs nor stores alive.
package worldstore

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"weak"

	"ucgraph/internal/graph"
	"ucgraph/internal/sampler"
)

// targetBlockBytes sizes label blocks: blocks hold as many worlds as fit in
// roughly this many bytes of labels, clamped to [minBlockWorlds,
// maxBlockWorlds]. Edge-bitmap blocks cover the same world ranges (same
// worlds-per-block), so one block index addresses both artifacts of a run
// of worlds. Block size is a performance knob only — estimates never
// depend on it, because each world's artifacts are computed independently.
const (
	targetBlockBytes = 1 << 20
	minBlockWorlds   = 8
	maxBlockWorlds   = 256
)

// family distinguishes the two block-cached per-world artifacts.
type family int

const (
	famLabels family = iota // component labels, []int32, n per world
	famBits                 // present-edge bitmaps, []uint64, wpw per world
	numFamilies
)

// Store is a memory-bounded cache of per-world artifacts — component
// labels and present-edge bitmaps — over the deterministic world stream of
// one (graph, seed) pair. The zero value is invalid; use New or Shared.
type Store struct {
	g    *graph.Uncertain
	seed uint64
	n    int
	wpw  int // uint64 words per world edge bitmap
	bw   int // worlds per block (both families)

	length atomic.Int64 // logical stream length: max world count requested

	mu            sync.Mutex
	blocks        [numFamilies]map[int]*block
	built         [numFamilies]map[int]bool // block indices ever materialized (recompute detection)
	budget        int64                     // byte budget across both families; <= 0 means unbounded
	residentBytes int64                     // nominal bytes of resident blocks
	clock         uint64
	hits          uint64
	materialized  uint64
	recomputed    uint64
	evicted       uint64
	pendingSpill  []*block // evicted blocks awaiting a disk-tier write, drained outside mu

	// spill is the optional disk tier (AttachCache): evicted blocks spill
	// to checksummed segment files and a miss tries RAM → disk → recompute.
	// Attached at most once; loaded lock-free on the miss path.
	spill atomic.Pointer[spillCache]

	// Disk-tier counters (atomic: bumped on paths that hold block locks
	// but not mu).
	diskHits        atomic.Uint64
	spillWrites     atomic.Uint64
	corruptDropped  atomic.Uint64
	coldRecomputes  atomic.Uint64
	spillRecomputes atomic.Uint64

	// Batched depth-limited kernel counters (atomic: bumped outside mu on
	// the CountWithinMulti path): which mode tallied how many worlds, and
	// how many bit-sliced plane flushes the accumulate mode performed.
	accumWorlds  atomic.Uint64
	accumFlushes atomic.Uint64
	directWorlds atomic.Uint64

	// reachPool recycles the batched BFS scratch CountWithinMulti uses;
	// sampler.MultiReachCounter is single-goroutine, so each call checks
	// one out for its duration.
	reachPool sync.Pool
}

// block is one materialized run of up to bw consecutive worlds of one
// artifact family. labels (famLabels) holds component labels world-major:
// world (base + i) occupies labels[i*n : (i+1)*n]; bits (famBits) holds
// edge bitmaps world-major: world (base + i) occupies
// bits[i*wpw : (i+1)*wpw]. Blocks fill front to back: worlds [0, done) are
// materialized, and a reader needing more extends the prefix under mu —
// so a request for a few worlds never pays for the whole block, while a
// full scan still enjoys one contiguous, cache-friendly buffer.
// Materialized prefixes are immutable: extension appends, and when it
// must reallocate, earlier captured buffers keep their (identical,
// immutable) prefix — see acquire.
type block struct {
	fam     family
	idx     int
	bytes   int64      // nominal full-block bytes, accounted in residentBytes
	mu      sync.Mutex // serializes prefix extension
	done    int        // worlds [0, done) of the block are materialized
	labels  []int32    // famLabels payload; grows toward bw*n, valid up to done*n
	bits    []uint64   // famBits payload; grows toward bw*wpw, valid up to done*wpw
	pins    int        // readers currently holding the block; guarded by Store.mu
	lastUse uint64
	fresh   bool // no load/compute attempt since insertion (disk probe pending); guarded by mu (the block's)
	rebuilt bool // this block index was materialized before in this process; set at insertion
	// ready mirrors done for lock-free residency probes. Only the bitmap
	// family maintains it (acquireBits stores it after an extension), and
	// only BitsResident reads it: a probe observing ready >= w knows
	// worlds [0, w) of the bitmap block are materialized. Label blocks
	// leave it zero — there is no label residency probe.
	ready atomic.Int32
}

// Stats reports store observability counters. It is the snapshot the
// server daemon's /statsz endpoint exposes per graph.
type Stats struct {
	// Worlds is the logical stream length (max worlds any consumer asked for).
	Worlds int
	// ResidentBlocks is the number of blocks currently materialized across
	// both artifact families (labels + edge bitmaps).
	ResidentBlocks int
	// ResidentLabelBlocks / ResidentBitmapBlocks split ResidentBlocks by
	// artifact family.
	ResidentLabelBlocks  int
	ResidentBitmapBlocks int
	// ResidentBytes is the nominal memory of the resident blocks — the
	// quantity the SetBudget byte budget bounds.
	ResidentBytes int64
	// BlockWorlds is the number of worlds per block.
	BlockWorlds int
	// Hits counts block acquisitions answered by an already-resident block
	// (no label computation needed).
	Hits uint64
	// Materializations counts block instantiations — computed fresh,
	// recomputed after eviction, or loaded back from the disk tier.
	Materializations uint64
	// Recomputes counts blocks computed again after having been
	// materialized before (in this process, or — when a load from the disk
	// tier fails — in the one that wrote the cache): the price paid for a
	// miss the disk tier could not absorb. Recomputes is split into
	// ColdRecomputes + PostSpillRecomputes.
	Recomputes uint64
	// ColdRecomputes counts Recomputes with no spilled copy to try: no
	// cache attached, or the block was evicted before it ever spilled.
	ColdRecomputes uint64
	// PostSpillRecomputes counts Recomputes where a spilled copy existed
	// but failed validation (truncated or corrupt payload) — each also
	// increments CorruptDropped. A healthy disk tier keeps this at zero.
	PostSpillRecomputes uint64
	// Evictions counts blocks dropped under memory pressure (spilled to
	// the disk tier first when a cache is attached).
	Evictions uint64
	// DiskHits counts block misses answered by the disk tier instead of
	// recomputation — including blocks persisted by a previous process
	// (warm restart).
	DiskHits uint64
	// DiskBytes is the live payload volume of the disk tier: the bytes a
	// re-attaching process could load instead of recompute.
	DiskBytes int64
	// SpillWrites counts evicted blocks written to the disk tier (blocks
	// whose spilled copy already covered their worlds are skipped).
	SpillWrites uint64
	// CorruptDropped counts spilled entries discarded on checksum or
	// extent validation failure — at attach (truncated segments) or on
	// load (bit rot). Dropped entries are recomputed, never served.
	CorruptDropped uint64
	// AccumWorlds counts worlds tallied by the accumulate-mode bit-sliced
	// reach kernel on the batched depth-limited path (CountWithinMulti);
	// DirectWorlds counts worlds the same path tallied through the
	// per-world direct fallback (graphs too large for the bit-sliced
	// accumulator). Both modes add identical per-world reach indicators,
	// so the split is an observability fact, never a results fact.
	AccumWorlds  uint64
	DirectWorlds uint64
	// AccumFlushes counts bit-sliced plane flushes (one per
	// capacity-sized sub-range per active segment).
	AccumFlushes uint64
	// CacheDir is the attached disk-tier directory ("" when the store has
	// no disk tier).
	CacheDir string
}

// defaultBudget is applied to stores created after SetDefaultBudget.
var defaultBudget atomic.Int64

// SetDefaultBudget sets the label-memory budget, in bytes, applied to
// stores created afterwards (0 restores the unbounded default). Existing
// stores are unaffected; use Store.SetBudget for those. This is the hook
// the CLI memory-budget flags use.
func SetDefaultBudget(bytes int64) { defaultBudget.Store(bytes) }

// New returns a private store over g's possible worlds under seed. Most
// callers want Shared instead, so that consumers of the same (graph, seed)
// converge on the same materialized worlds.
func New(g *graph.Uncertain, seed uint64) *Store {
	n := g.NumNodes()
	bw := targetBlockBytes / (4 * n)
	if bw < minBlockWorlds {
		bw = minBlockWorlds
	}
	if bw > maxBlockWorlds {
		bw = maxBlockWorlds
	}
	s := &Store{
		g:    g,
		seed: seed,
		n:    n,
		wpw:  sampler.EdgeBitmapWords(g.NumEdges()),
		bw:   bw,
	}
	for f := range s.blocks {
		s.blocks[f] = make(map[int]*block)
		s.built[f] = make(map[int]bool)
	}
	s.reachPool.New = func() any { return sampler.NewMultiReachCounter(g) }
	if b := defaultBudget.Load(); b > 0 {
		s.SetBudget(b)
	}
	return s
}

// blockBytes returns the nominal full-block byte size of one family's
// block — the unit the byte budget is accounted in.
func (s *Store) blockBytes(f family) int64 {
	if f == famBits {
		return int64(8 * s.wpw * s.bw)
	}
	return int64(4 * s.n * s.bw)
}

// registryKey identifies a shared store. The graph is held weakly so the
// registry does not extend its lifetime.
type registryKey struct {
	g    weak.Pointer[graph.Uncertain]
	seed uint64
}

var (
	registryMu sync.Mutex
	registry   = make(map[registryKey]weak.Pointer[Store])
)

// Shared returns the store for (g, seed), creating it on first use. All
// callers passing the same graph value and seed receive the same store, so
// the world stream — and the label blocks materialized over it — are shared
// across subsystems. The registry holds only weak references: once every
// consumer drops a store it is garbage collected (taking its blocks with
// it) and a later Shared call builds a fresh, deterministic replacement.
func Shared(g *graph.Uncertain, seed uint64) *Store {
	key := registryKey{g: weak.Make(g), seed: seed}
	registryMu.Lock()
	defer registryMu.Unlock()
	if wp, ok := registry[key]; ok {
		if s := wp.Value(); s != nil {
			return s
		}
	}
	s := New(g, seed)
	registry[key] = weak.Make(s)
	runtime.AddCleanup(s, func(key registryKey) {
		registryMu.Lock()
		if wp, ok := registry[key]; ok && wp.Value() == nil {
			delete(registry, key)
		}
		registryMu.Unlock()
	}, key)
	return s
}

// Graph returns the underlying graph.
func (s *Store) Graph() *graph.Uncertain { return s.g }

// Seed returns the world-stream seed.
func (s *Store) Seed() uint64 { return s.seed }

// NumNodes returns the node count of the underlying graph.
func (s *Store) NumNodes() int { return s.n }

// World returns the implicit view of world i: the same world the label
// blocks index, usable for edge queries and per-world BFS.
func (s *Store) World(i int) sampler.World {
	return sampler.World{G: s.g, Seed: s.seed, Index: uint64(i)}
}

// Grow raises the logical stream length to at least r worlds. Labels are
// materialized lazily, block by block, on first scan; Grow itself is cheap.
// The stream never shrinks.
func (s *Store) Grow(r int) {
	for {
		cur := s.length.Load()
		if int64(r) <= cur || s.length.CompareAndSwap(cur, int64(r)) {
			return
		}
	}
}

// Worlds returns the logical stream length: the largest world count any
// consumer has requested so far.
func (s *Store) Worlds() int { return int(s.length.Load()) }

// BlockWorlds returns the number of worlds per block — the granularity at
// which blocks of either artifact family are materialized and evicted. It
// is a pure function of the graph's node count, so every store over the
// same graph (in this process or another) agrees on it; the shard
// coordinator relies on that to cut block-aligned world ranges that map
// cleanly onto worker-side blocks.
func (s *Store) BlockWorlds() int { return s.bw }

// BitsResident reports whether every edge-bitmap block covering worlds
// [lo, hi) is currently resident with the needed world prefix
// materialized — i.e. whether a depth-limited scan over the range can be
// answered from warm bitmaps without computing anything. It is a
// performance hint only: a block may be evicted between the probe and a
// subsequent ScanBits (which then recomputes it, bit-identically), so
// callers use it to choose between equivalent paths, never for
// correctness.
func (s *Store) BitsResident(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		b, ok := s.blocks[famBits][bi]
		if !ok {
			return false
		}
		need := hi - bi*s.bw
		if need > s.bw {
			need = s.bw
		}
		if int(b.ready.Load()) < need {
			return false
		}
	}
	return true
}

// BitsWarm is BitsResident extended by the disk tier: it reports whether
// every edge-bitmap block covering worlds [lo, hi) is either resident
// with the needed prefix or persisted in the attached spill cache — i.e.
// whether a depth-limited scan can be answered without re-evaluating edge
// coins (a disk load is a sequential read plus checksum, orders of
// magnitude cheaper than re-hashing every edge of every world). Like
// BitsResident it is a performance hint only, never used for correctness.
func (s *Store) BitsWarm(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return false
	}
	type miss struct{ bi, need int }
	var missing []miss
	s.mu.Lock()
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		need := hi - bi*s.bw
		if need > s.bw {
			need = s.bw
		}
		if b, ok := s.blocks[famBits][bi]; ok && int(b.ready.Load()) >= need {
			continue
		}
		missing = append(missing, miss{bi, need})
	}
	s.mu.Unlock()
	if len(missing) == 0 {
		return true
	}
	c := s.spill.Load()
	if c == nil {
		return false
	}
	for _, m := range missing {
		if c.entryDone(famBits, m.bi) < m.need {
			return false
		}
	}
	return true
}

// SetBudget bounds the memory spent on materialized blocks — label and
// edge-bitmap families together — to roughly bytes (a block being acquired
// is always allowed in even when it alone overshoots, so scans make
// progress). bytes <= 0 removes the bound. Shrinking evicts immediately.
// Estimates are identical in bounded and unbounded mode: evicted blocks
// are recomputed, not approximated.
func (s *Store) SetBudget(bytes int64) {
	s.mu.Lock()
	if bytes <= 0 {
		s.budget = 0
		s.mu.Unlock()
		return
	}
	s.budget = bytes
	s.evictLocked(s.budget)
	victims := s.takePendingLocked()
	s.mu.Unlock()
	s.writeSpills(victims)
}

// Stats returns observability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Worlds:               int(s.length.Load()),
		ResidentBlocks:       len(s.blocks[famLabels]) + len(s.blocks[famBits]),
		ResidentLabelBlocks:  len(s.blocks[famLabels]),
		ResidentBitmapBlocks: len(s.blocks[famBits]),
		ResidentBytes:        s.residentBytes,
		BlockWorlds:          s.bw,
		Hits:                 s.hits,
		Materializations:     s.materialized,
		Recomputes:           s.recomputed,
		Evictions:            s.evicted,
	}
	s.mu.Unlock()
	st.DiskHits = s.diskHits.Load()
	st.SpillWrites = s.spillWrites.Load()
	st.CorruptDropped = s.corruptDropped.Load()
	st.ColdRecomputes = s.coldRecomputes.Load()
	st.PostSpillRecomputes = s.spillRecomputes.Load()
	st.AccumWorlds = s.accumWorlds.Load()
	st.AccumFlushes = s.accumFlushes.Load()
	st.DirectWorlds = s.directWorlds.Load()
	if c := s.spill.Load(); c != nil {
		st.DiskBytes = c.bytes()
		st.CacheDir = c.dir
	}
	return st
}

// TierDelta is the tier-activity difference between two Stats snapshots:
// which storage tier (resident RAM block, disk-tier load, recompute from
// the stream) served the block acquisitions in between. It exists for
// per-request trace attribution — a shard worker snapshots Stats around
// one tally and ships the delta back to the coordinator. On a store
// shared by concurrent requests the delta attributes the store's total
// activity during the window, not the single request's share; it informs
// operators, never estimates.
type TierDelta struct {
	Hits             uint64 // acquisitions served by resident blocks
	DiskHits         uint64 // block misses answered by the disk tier
	Recomputes       uint64 // blocks rebuilt from the stream after eviction
	Materializations uint64 // block instantiations (fresh, recomputed or disk-loaded)
}

// TierDelta reports the tier-activity counters of s relative to the
// earlier snapshot prev.
func (s Stats) TierDelta(prev Stats) TierDelta {
	return TierDelta{
		Hits:             s.Hits - prev.Hits,
		DiskHits:         s.DiskHits - prev.DiskHits,
		Recomputes:       s.Recomputes - prev.Recomputes,
		Materializations: s.Materializations - prev.Materializations,
	}
}

// AttachCache attaches the disk tier rooted at dir: evicted blocks spill
// to checksummed segment files under dir and misses try disk before
// recomputing. An existing directory written by a previous process for
// the same (graph digest, seed, shape) is re-attached as-is — that is the
// warm-restart path — while a directory belonging to a different store is
// rejected. At most one cache can be attached per store; entries dropped
// while replaying a truncated directory are counted in CorruptDropped.
func (s *Store) AttachCache(dir string) error {
	h := spillHeader{
		digest: s.g.Digest(),
		seed:   s.seed,
		n:      s.n,
		wpw:    s.wpw,
		bw:     s.bw,
	}
	var rows [numFamilies]int64
	rows[famLabels] = int64(4 * s.n)
	rows[famBits] = int64(8 * s.wpw)
	c, dropped, err := openSpillCache(dir, h, rows, s.bw)
	if err != nil {
		return err
	}
	if !s.spill.CompareAndSwap(nil, c) {
		c.close()
		return errors.New("worldstore: store already has a cache attached")
	}
	s.corruptDropped.Add(uint64(dropped))
	// The cache holds OS resources (fds, mmaps) but no reference back to
	// the store, so it is reclaimed with the store.
	runtime.AddCleanup(s, func(c *spillCache) { c.close() }, c)
	return nil
}

// CacheDir returns the attached disk-tier directory, "" if none.
func (s *Store) CacheDir() string {
	if c := s.spill.Load(); c != nil {
		return c.dir
	}
	return ""
}

// acquireBlock returns family f's block bi, pinned against eviction,
// inserting (and budget-accounting) a fresh one if absent. Before an
// insertion, enough LRU unpinned blocks of either family are evicted to
// make room under the byte budget; the new block is admitted even when
// the budget cannot be met, so progress never blocks on memory pressure.
// Caller must not hold s.mu.
func (s *Store) acquireBlock(f family, bi int) *block {
	s.mu.Lock()
	b, ok := s.blocks[f][bi]
	if !ok {
		// Whether the miss ends up a disk hit or a recompute is decided at
		// first extension (primeBlock), when the disk tier is probed —
		// insertion only records whether this index was materialized before.
		b = &block{fam: f, idx: bi, bytes: s.blockBytes(f), fresh: true, rebuilt: s.built[f][bi]}
		if s.budget > 0 {
			s.evictLocked(s.budget - b.bytes)
		}
		s.blocks[f][bi] = b
		s.residentBytes += b.bytes
		s.materialized++
		s.built[f][bi] = true
	} else {
		s.hits++
	}
	b.pins++
	s.clock++
	b.lastUse = s.clock
	victims := s.takePendingLocked()
	s.mu.Unlock()
	s.writeSpills(victims)
	return b
}

// acquire returns the label block bi with at least the first need worlds
// materialized, pinned against eviction, along with the label buffer
// captured under the block's mutex. Prefix extension serializes on that
// mutex, so exactly one goroutine computes each world while later
// arrivals reuse it. The buffer is sized to the materialized prefix
// (doubling up to the full block), so a request for a few worlds never
// allocates the whole block. A reallocation during a later extension
// leaves earlier captured buffers intact — their materialized prefix is
// immutable — which is why callers must read through the returned slice,
// not through b.labels. Callers must release the block.
func (s *Store) acquire(bi, need int) (*block, []int32) {
	b := s.acquireBlock(famLabels, bi)
	b.mu.Lock()
	if b.fresh {
		s.primeBlock(b)
	}
	if b.done < need {
		if len(b.labels) < need*s.n {
			worlds := 2 * b.done
			if worlds < need {
				worlds = need
			}
			if worlds > s.bw {
				worlds = s.bw
			}
			grown := make([]int32, worlds*s.n)
			copy(grown, b.labels[:b.done*s.n])
			b.labels = grown
		}
		s.computeWorlds(bi, b.done, need, b.labels)
		b.done = need
	}
	labels := b.labels
	b.mu.Unlock()
	return b, labels
}

// acquireBits is acquire for the edge-bitmap family: it returns bitmap
// block bi with at least the first need worlds filled, pinned, along with
// the bitmap buffer captured under the block's mutex. The same prefix
// immutability contract as acquire applies: read through the returned
// slice, never through b.bits.
func (s *Store) acquireBits(bi, need int) (*block, []uint64) {
	b := s.acquireBlock(famBits, bi)
	b.mu.Lock()
	if b.fresh {
		s.primeBlock(b)
	}
	if b.done < need {
		if len(b.bits) < need*s.wpw {
			worlds := 2 * b.done
			if worlds < need {
				worlds = need
			}
			if worlds > s.bw {
				worlds = s.bw
			}
			grown := make([]uint64, worlds*s.wpw)
			copy(grown, b.bits[:b.done*s.wpw])
			b.bits = grown
		}
		s.computeBitmaps(bi, b.done, need, b.bits)
		b.done = need
		b.ready.Store(int32(need))
	}
	bits := b.bits
	b.mu.Unlock()
	return b, bits
}

// primeBlock resolves a freshly inserted block's first extension against
// the disk tier: a valid spilled prefix is loaded (disk hit), a spilled
// entry that fails validation is dropped and counted (the block falls
// through to recomputation), and a miss with no entry is classified cold
// or recompute by whether this index was materialized before. Called
// under b's mutex, before the compute path looks at b.done.
func (s *Store) primeBlock(b *block) {
	b.fresh = false
	c := s.spill.Load()
	var loaded, hadEntry bool
	if c != nil {
		loaded, hadEntry = c.load(b)
	}
	switch {
	case loaded:
		s.diskHits.Add(1)
	case hadEntry:
		s.corruptDropped.Add(1)
		s.noteRecompute(true)
	case b.rebuilt:
		s.noteRecompute(false)
	}
}

// noteRecompute counts one block recomputation, split by whether a
// spilled copy existed (and failed) or there was nothing on disk to try.
func (s *Store) noteRecompute(postSpill bool) {
	s.mu.Lock()
	s.recomputed++
	s.mu.Unlock()
	if postSpill {
		s.spillRecomputes.Add(1)
	} else {
		s.coldRecomputes.Add(1)
	}
}

// takePendingLocked claims the evicted blocks queued for a disk-tier
// write. Caller holds s.mu; the returned blocks are privately owned (out
// of the block map, zero pins), so the caller writes them after unlocking.
func (s *Store) takePendingLocked() []*block {
	if len(s.pendingSpill) == 0 {
		return nil
	}
	victims := s.pendingSpill
	s.pendingSpill = nil
	return victims
}

// writeSpills persists evicted blocks to the disk tier. Runs without
// store locks: the victims are unreachable, and the spill cache has its
// own mutex.
func (s *Store) writeSpills(victims []*block) {
	if len(victims) == 0 {
		return
	}
	c := s.spill.Load()
	if c == nil {
		return
	}
	for _, b := range victims {
		if c.store(b) {
			s.spillWrites.Add(1)
		}
	}
}

// matSem bounds the extra goroutines spawned by concurrent block
// materializations across ALL stores in the process, so consumers that
// already fan block accesses out (the oracle's sharded tally workers) do
// not multiply into workers^2 goroutines. A token shortage degrades to
// fewer, larger shares of the block — never to blocking.
var (
	matSemOnce sync.Once
	matSem     chan struct{}
)

func materializeSem() chan struct{} {
	matSemOnce.Do(func() {
		capacity := runtime.GOMAXPROCS(0)
		matSem = make(chan struct{}, capacity)
		for i := 0; i < capacity; i++ {
			matSem <- struct{}{}
		}
	})
	return matSem
}

// fanOutWorlds runs a per-world computation for every index in [lo, hi),
// fanning across available workers. Each worker calls worker() once to
// bind its private scratch and then invokes the returned function for the
// indices it steals off a shared cursor. Extra workers draw tokens from
// the process-wide materialization semaphore; a token shortage degrades to
// fewer workers — never to blocking. Stealing only changes which worker
// computes a world, never the result: every world writes a disjoint slice
// of the output.
func fanOutWorlds(lo, hi int, worker func() func(i int)) {
	span := hi - lo
	workers := runtime.GOMAXPROCS(0)
	if workers > span {
		workers = span
	}
	extra := 0
	if workers > 1 {
		sem := materializeSem()
		for extra < workers-1 {
			select {
			case <-sem:
				extra++
				continue
			default:
			}
			break
		}
	}
	if extra == 0 {
		compute := worker()
		for i := lo; i < hi; i++ {
			compute(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { matSem <- struct{}{} }()
			compute := worker()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				compute(i)
			}
		}()
	}
	compute := worker()
	for {
		i := int(next.Add(1)) - 1
		if i >= hi {
			break
		}
		compute(i)
	}
	wg.Wait()
}

// computeWorlds materializes worlds [lo, hi) of block bi into labels.
// Each world's labels are computed independently into a disjoint slice of
// the buffer, so the bits do not depend on the worker count.
func (s *Store) computeWorlds(bi, lo, hi int, labels []int32) {
	base := bi * s.bw
	fanOutWorlds(lo, hi, func() func(int) {
		uf := graph.NewUnionFind(s.n)
		return func(i int) {
			w := sampler.World{G: s.g, Seed: s.seed, Index: uint64(base + i)}
			w.ComponentLabels(uf, labels[i*s.n:(i+1)*s.n])
		}
	})
}

// computeBitmaps materializes the edge bitmaps of worlds [lo, hi) of block
// bi into bits. Each world's bitmap is filled independently into a
// disjoint slice of the buffer, so the bits do not depend on the worker
// count.
func (s *Store) computeBitmaps(bi, lo, hi int, bits []uint64) {
	base := bi * s.bw
	fanOutWorlds(lo, hi, func() func(int) {
		return func(i int) {
			w := sampler.World{G: s.g, Seed: s.seed, Index: uint64(base + i)}
			w.FillEdgeBitmap(bits[i*s.wpw : (i+1)*s.wpw])
		}
	})
}

// release unpins a block acquired with acquire. When the last pin drops
// while the store is over budget — a SetBudget shrink that ran while this
// block was pinned had to skip it — eviction resumes here, so pinned
// blocks outliving a shrink only overshoot the budget for the duration of
// the pin, and ResidentBytes settles back under the bound.
func (s *Store) release(b *block) {
	s.mu.Lock()
	b.pins--
	if b.pins == 0 && s.budget > 0 && s.residentBytes > s.budget {
		s.evictLocked(s.budget)
	}
	victims := s.takePendingLocked()
	s.mu.Unlock()
	s.writeSpills(victims)
}

// evictLocked drops least-recently-used unpinned blocks — across both
// artifact families — until at most maxBytes of nominal block memory
// remain. Blocks still being materialized or pinned by readers are never
// dropped; if everything is pinned the budget is temporarily overshot
// rather than blocking. Caller holds s.mu.
func (s *Store) evictLocked(maxBytes int64) {
	if maxBytes < 0 {
		maxBytes = 0
	}
	for s.residentBytes > maxBytes {
		var victim *block
		for f := range s.blocks {
			for _, b := range s.blocks[f] {
				// pins == 0 implies no goroutine is reading or extending the
				// block: extension happens while its requester holds a pin.
				if b.pins > 0 {
					continue
				}
				if victim == nil || b.lastUse < victim.lastUse {
					victim = b
				}
			}
		}
		if victim == nil {
			return
		}
		delete(s.blocks[victim.fam], victim.idx)
		s.residentBytes -= victim.bytes
		s.evicted++
		// With a disk tier attached, the victim spills instead of being
		// forgotten. The write happens after s.mu is released (the victim is
		// privately owned once out of the map): callers that can evict drain
		// the queue via takePendingLocked + writeSpills.
		if victim.done > 0 && s.spill.Load() != nil {
			s.pendingSpill = append(s.pendingSpill, victim)
		}
	}
}

// Scan calls fn(i, labels) for every world i in [lo, hi), in increasing
// order, where labels is the world's component-label slice (length
// NumNodes). The slice is only valid during the callback and must not be
// modified. Blocks are pinned for the duration of their worlds' callbacks,
// acquired one at a time, so a scan holds at most one block against
// eviction. Scan grows the logical stream to hi.
func (s *Store) Scan(lo, hi int, fn func(i int, labels []int32)) {
	_ = s.ScanCtx(context.Background(), lo, hi, fn)
}

// ScanCtx is Scan with cooperative cancellation: the context is checked
// before each block is acquired (the unit of expensive work), and the first
// cancellation or deadline error is returned with the scan abandoned.
// Worlds already delivered to fn are exact; a scan that returns nil
// delivered every world in [lo, hi) and is bit-identical to Scan.
func (s *Store) ScanCtx(ctx context.Context, lo, hi int, fn func(i int, labels []int32)) error {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return nil
	}
	s.Grow(hi)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		base := bi * s.bw
		start, end := lo, hi
		if start < base {
			start = base
		}
		if end > base+s.bw {
			end = base + s.bw
		}
		b, labels := s.acquire(bi, end-base)
		for i := start; i < end; i++ {
			off := (i - base) * s.n
			fn(i, labels[off:off+s.n:off+s.n])
		}
		s.release(b)
	}
	return nil
}

// Connected reports whether u and v share a component in world i.
func (s *Store) Connected(i int, u, v graph.NodeID) bool {
	conn := false
	s.Scan(i, i+1, func(_ int, lab []int32) { conn = lab[u] == lab[v] })
	return conn
}

// CountConnectedFrom adds, for every node u, the number of worlds in
// [lo, hi) where u and c share a component, into counts (length NumNodes).
// counts is not cleared, so callers can accumulate across ranges.
func (s *Store) CountConnectedFrom(c graph.NodeID, lo, hi int, counts []int32) {
	s.Scan(lo, hi, func(_ int, lab []int32) {
		lc := lab[c]
		for u, lu := range lab {
			if lu == lc {
				counts[u]++
			}
		}
	})
}

// CountConnectedFromMulti is the batched form of CountConnectedFrom: for
// each center cs[j] it adds, into counts[j], the per-node connection counts
// over worlds [lo[j], hi). All centers are answered in ONE pass over each
// world block: per world the centers are grouped by their component label,
// and a single scan of the label vector dispatches each node's increments
// to every center sharing its component. The cost per world is
// O(n + centers + increments) instead of the O(n * centers) of repeated
// single-center scans, and each block is acquired (and, under a memory
// budget, potentially recomputed) once instead of once per center.
//
// Counts are plain integer accumulations over a deterministic world range,
// so the result is bit-identical to looping CountConnectedFrom per center.
func (s *Store) CountConnectedFromMulti(cs []graph.NodeID, lo []int, hi int, counts [][]int32) {
	if len(cs) == 0 {
		return
	}
	minLo := hi
	for _, l := range lo {
		if l < minLo {
			minLo = l
		}
	}
	if minLo >= hi {
		return
	}
	// byLabel[l] lists the (indices of) centers whose component label in
	// the current world is l; touched tracks which entries to reset.
	byLabel := make([][]int32, s.n)
	touched := make([]int32, 0, len(cs))
	s.Scan(minLo, hi, func(i int, lab []int32) {
		for _, l := range touched {
			byLabel[l] = byLabel[l][:0]
		}
		touched = touched[:0]
		for j, c := range cs {
			if lo[j] > i {
				continue
			}
			l := lab[c]
			if len(byLabel[l]) == 0 {
				touched = append(touched, l)
			}
			byLabel[l] = append(byLabel[l], int32(j))
		}
		if len(touched) == 0 {
			return
		}
		for u, l := range lab {
			for _, j := range byLabel[l] {
				counts[j][u]++
			}
		}
	})
}

// ScanBits calls fn(i, bits) for every world i in [lo, hi), in increasing
// order, where bits is the world's present-edge bitmap (length
// sampler.EdgeBitmapWords(NumEdges); bit e set iff edge e is present —
// test with sampler.BitmapContains). The slice is only valid during the
// callback and must not be modified. Bitmap blocks are pinned one at a
// time, exactly like label blocks in Scan, and count against the same
// byte budget. ScanBits grows the logical stream to hi.
func (s *Store) ScanBits(lo, hi int, fn func(i int, bits []uint64)) {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return
	}
	s.Grow(hi)
	for bi := lo / s.bw; bi*s.bw < hi; bi++ {
		base := bi * s.bw
		start, end := lo, hi
		if start < base {
			start = base
		}
		if end > base+s.bw {
			end = base + s.bw
		}
		b, bits := s.acquireBits(bi, end-base)
		for i := start; i < end; i++ {
			off := (i - base) * s.wpw
			fn(i, bits[off:off+s.wpw:off+s.wpw])
		}
		s.release(b)
	}
}

// CountWithinMulti is the depth-limited mirror of CountConnectedFromMulti:
// for each center cs[j] it adds, into counts[j] (length NumNodes, not
// cleared), the number of worlds in [lo[j], hi) where each node is within
// depth hops of cs[j]. depth < 0 means unconstrained reachability (callers
// with unlimited depth should prefer the label-scan path, which is O(n)
// per world instead of BFS).
//
// All centers are answered in ONE pass over each world's edge bitmap: the
// world's edge coins are evaluated once, when its bitmap block is
// materialized, and every center's depth-bounded BFS tests bits instead of
// re-hashing — so a batch pays the edge-coin bill once per world instead
// of once per (world, center), and each block is acquired (and, under a
// memory budget, potentially recomputed) once instead of once per center.
//
// Each (world, center) BFS visit set is a pure function of the world's
// edge set, so the result is bit-identical to looping a per-center
// sampler.ReachCounter over the same ranges.
func (s *Store) CountWithinMulti(cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	if len(cs) == 0 {
		return
	}
	mrc := s.reachPool.Get().(*sampler.MultiReachCounter)
	defer s.reachPool.Put(mrc)
	// Mask groups of <= 64 centers, each answered over the same bitmap
	// blocks (re-acquisitions after the first group are cache hits).
	for base := 0; base < len(cs); base += 64 {
		end := base + 64
		if end > len(cs) {
			end = len(cs)
		}
		s.countWithinGroup(mrc, cs[base:end], depth, lo[base:end], hi, counts[base:end])
	}
}

// countWithinGroup answers one <= 64-center group. The world range is split
// at the distinct lo values into segments on which the active center set
// is constant, so the counter's accumulate mode (bit-sliced planes,
// flushed per segment) keeps a stable bit-to-center mapping; graphs too
// large for the accumulator fall back to per-world direct counting.
// Either mode adds the same per-world reach indicators, so the counts are
// bit-identical regardless of mode, segmentation, or group split.
func (s *Store) countWithinGroup(mrc *sampler.MultiReachCounter, cs []graph.NodeID, depth int, lo []int, hi int, counts [][]int32) {
	// Distinct segment starts: every lo value below hi, ascending.
	starts := make([]int, 0, len(lo))
	for _, l := range lo {
		if l < 0 {
			l = 0
		}
		if l >= hi {
			continue
		}
		starts = append(starts, l)
	}
	if len(starts) == 0 {
		return
	}
	sort.Ints(starts)
	accum := mrc.BeginAccum()
	activeCs := make([]graph.NodeID, 0, len(cs))
	activeCounts := make([][]int32, 0, len(cs))
	for k := 0; k < len(starts); k++ {
		a := starts[k]
		if k > 0 && a == starts[k-1] {
			continue // duplicate lo value
		}
		b := hi
		for _, nl := range starts[k+1:] {
			if nl > a {
				b = nl
				break
			}
		}
		activeCs = activeCs[:0]
		activeCounts = activeCounts[:0]
		for j, c := range cs {
			if lo[j] > a {
				continue
			}
			activeCs = append(activeCs, c)
			activeCounts = append(activeCounts, counts[j])
		}
		if accum {
			// Flush on the accumulator's capacity cadence: the bit-sliced
			// planes hold at most AccumCapacity worlds of counts, so long
			// segments accumulate in capacity-sized sub-ranges. Flushing
			// more often only regroups exact integer additions — the counts
			// are bit-identical for any cadence.
			capacity := mrc.AccumCapacity()
			for x := a; x < b; x += capacity {
				y := x + capacity
				if y > b {
					y = b
				}
				s.ScanBits(x, y, func(_ int, bits []uint64) {
					mrc.AccumWorld(bits, activeCs, depth)
				})
				mrc.FlushAccum(activeCounts)
				s.accumWorlds.Add(uint64(y - x))
				s.accumFlushes.Add(1)
			}
		} else {
			s.ScanBits(a, b, func(_ int, bits []uint64) {
				mrc.CountWithinWorld(bits, activeCs, depth, activeCounts)
			})
			s.directWorlds.Add(uint64(b - a))
		}
	}
}

// EstimateFrom returns the Monte Carlo estimates of Pr(u ~ c) for all
// nodes u over the first r worlds.
func (s *Store) EstimateFrom(c graph.NodeID, r int) []float64 {
	counts := make([]int32, s.n)
	s.CountConnectedFrom(c, 0, r, counts)
	out := make([]float64, s.n)
	inv := 1 / float64(r)
	for u, cnt := range counts {
		out[u] = float64(cnt) * inv
	}
	return out
}

// EstimatePair returns the Monte Carlo estimate of Pr(u ~ v) over the
// first r worlds.
func (s *Store) EstimatePair(u, v graph.NodeID, r int) float64 {
	p, _ := s.EstimatePairCtx(context.Background(), u, v, r)
	return p
}

// EstimatePairCtx is EstimatePair with cooperative cancellation: the scan
// aborts at the next block boundary once ctx is done, returning ctx's
// error.
func (s *Store) EstimatePairCtx(ctx context.Context, u, v graph.NodeID, r int) (float64, error) {
	cnt := 0
	if err := s.ScanCtx(ctx, 0, r, func(_ int, lab []int32) {
		if lab[u] == lab[v] {
			cnt++
		}
	}); err != nil {
		return 0, err
	}
	return float64(cnt) / float64(r), nil
}
