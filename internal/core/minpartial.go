package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
	"ucgraph/internal/rng"
)

// PartialParams configures one invocation of min-partial (Algorithm 1) or
// its depth-limited variant min-partial-d (Algorithm 4).
type PartialParams struct {
	// K is the number of clusters.
	K int
	// Q is the removal threshold: nodes with estimated connection
	// probability >= (1 - Eps/2) * Q to the newly selected center leave the
	// uncovered set (line 8 of Algorithm 1).
	Q float64
	// QBar is the selection threshold used to score candidate centers
	// (line 5); QBar must be in [Q, 1].
	QBar float64
	// Alpha is the number of candidate centers examined per iteration
	// (|T| on line 4). Alpha <= 0 means "all uncovered nodes" (alpha = n).
	Alpha int
	// Depth bounds the path length for the removal disks (d in
	// Algorithm 4); conn.Unlimited means unconstrained.
	Depth int
	// DepthSel bounds the path length for the selection disks (d' in
	// Algorithm 4). Ignored when it equals Depth.
	DepthSel int
	// R is the Monte Carlo sample size handed to the oracle.
	R int
	// Eps is the estimation slack of Section 4.1: thresholds t are tested
	// as estimate >= (1 - Eps/2) * t. Zero means exact thresholding.
	Eps float64
	// Parallelism caps the number of goroutines scoring the estimate
	// vectors returned by the batched candidate queries (lines 5-6); the
	// oracle queries themselves are batched through FromCentersCtx and
	// parallelized inside the oracle. <= 0 selects GOMAXPROCS; 1
	// forces the serial loop. The selected centers — and hence the
	// clustering — do not depend on the setting as long as the oracle
	// itself answers identically under concurrency (conn.MonteCarlo does,
	// up to the tally-cache overflow boundary documented on it).
	Parallelism int
	// ScoreChunk bounds how many candidates one batched FromCenters
	// scoring query carries (<= 0 selects the default, 64). Larger chunks
	// trade peak memory (chunk * n floats of estimate vectors alive at
	// once) for fewer oracle round-trips — worthwhile when the oracle is
	// a shard coordinator whose per-query cost includes a network
	// scatter. The chunk size never affects results.
	ScoreChunk int
	// Adaptive, when non-nil, replaces fixed-budget candidate scoring with
	// confidence-target racing (see AdaptiveScoring): candidates race on a
	// doubling world schedule capped at R and are pruned once their score
	// intervals separate. nil preserves the fixed-budget path bit for bit.
	Adaptive *AdaptiveScoring
	// Progress, when non-nil, is called after every center selection with
	// that selection's ProgressEvent — the hook the server's progressive
	// clustering mode streams from. It is called on the driver goroutine;
	// it must not block for long.
	Progress func(ProgressEvent)
}

// scoreChunk bounds how many candidate centers are handed to one batched
// FromCenters query (and so how many estimate vectors are alive at once):
// chunking caps the scoring working set at scoreChunk * n floats even when
// alpha is "all uncovered nodes". The chunk size does not affect results.
const scoreChunk = 64

// workers resolves the effective candidate-scoring worker count.
func (p PartialParams) workers() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// chunk resolves the effective scoring-batch size.
func (p PartialParams) chunk() int {
	if p.ScoreChunk > 0 {
		return p.ScoreChunk
	}
	return scoreChunk
}

// PartialResult is the outcome of a min-partial run: the partial clustering
// plus the streaming per-node argmax over all selected centers, which both
// MCP and ACP need (for completion and for the final assignment).
type PartialResult struct {
	Clustering *Clustering
	// BestIdx[u] is the cluster index whose center has the highest
	// estimated connection probability to u (-1 if all are 0);
	// BestProb[u] is that probability.
	BestIdx  []int32
	BestProb []float64
	// OracleCalls counts FromCenter invocations (cost observability).
	OracleCalls int
}

// MinPartial runs Algorithm 1 (or Algorithm 4 when Depth/DepthSel are set)
// against the given oracle. The returned clustering covers a maximal subset
// of nodes, each with estimated connection probability at least
// (1-eps/2)*Q to its cluster's center; remaining nodes stay Unassigned.
//
// The "arbitrary" candidate subsets T of line 4 are drawn uniformly at
// random from the uncovered set using rnd, matching the randomized runs
// averaged in the paper's experiments.
func MinPartial(o conn.ContextOracle, rnd *rng.Xoshiro256, p PartialParams) *PartialResult {
	res, _ := MinPartialCtx(context.Background(), o, rnd, p)
	return res
}

// MinPartialCtx is MinPartial with cooperative cancellation: oracle
// queries carry ctx, so a deadline or cancellation aborts the run
// mid-estimation and returns ctx's error. A nil-error run is
// bit-identical to MinPartial with the same oracle, rnd and params.
func MinPartialCtx(ctx context.Context, o conn.ContextOracle, rnd *rng.Xoshiro256, p PartialParams) (*PartialResult, error) {
	if p.Adaptive != nil {
		if err := (conn.AdaptiveParams{Eps: p.Adaptive.Eps, Delta: p.Adaptive.Delta}).Validate(); err != nil {
			return nil, err
		}
	}
	n := o.NumNodes()
	k := p.K
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	alpha := p.Alpha
	if alpha <= 0 || alpha > n {
		alpha = n
	}
	selThresh := (1 - p.Eps/2) * p.QBar
	remThresh := (1 - p.Eps/2) * p.Q

	// uncovered is maintained as a dense array with swap-removal so that
	// sampling a random uncovered node is O(1).
	uncovered := make([]graph.NodeID, n)
	pos := make([]int32, n) // pos[u] = index of u in uncovered, -1 if removed
	for i := range uncovered {
		uncovered[i] = graph.NodeID(i)
		pos[i] = int32(i)
	}
	remove := func(u graph.NodeID) {
		i := pos[u]
		if i < 0 {
			return
		}
		last := int32(len(uncovered) - 1)
		moved := uncovered[last]
		uncovered[i] = moved
		pos[moved] = i
		uncovered = uncovered[:last]
		pos[u] = -1
	}

	res := &PartialResult{
		Clustering: &Clustering{
			Assign: make([]int32, n),
			Prob:   make([]float64, n),
		},
		BestIdx:  make([]int32, n),
		BestProb: make([]float64, n),
	}
	cl := res.Clustering
	for i := range cl.Assign {
		cl.Assign[i] = Unassigned
		res.BestIdx[i] = -1
	}
	isCenter := make([]bool, n)

	// absorb merges a freshly selected center's estimate vector into the
	// streaming argmax.
	absorb := func(clusterIdx int32, est []float64) {
		for u := 0; u < n; u++ {
			if est[u] > res.BestProb[u] {
				res.BestProb[u] = est[u]
				res.BestIdx[u] = clusterIdx
			}
		}
	}

	for len(cl.Centers) < k && len(uncovered) > 0 {
		// Line 4: pick T, |T| = min(alpha, |V'|), uniformly without
		// replacement via a partial shuffle of the uncovered array.
		tsize := alpha
		if tsize > len(uncovered) {
			tsize = len(uncovered)
		}
		for i := 0; i < tsize; i++ {
			j := i + rnd.Intn(len(uncovered)-i)
			u, v := uncovered[i], uncovered[j]
			uncovered[i], uncovered[j] = v, u
			pos[u], pos[v] = int32(j), int32(i)
		}

		// Lines 5-6: score candidates by |Mv| and keep the best. The
		// candidates are handed to the oracle in chunks via the batched
		// FromCenters query, which answers a whole chunk in one pass over
		// each world block at any depth — label scans for Algorithm 1,
		// edge-bitmap frontier BFS for the d-limited disks of Algorithm 4
		// (see conn.MonteCarlo.FromCenters); chunking
		// bounds the estimate vectors held in memory to scoreChunk * n
		// floats even when alpha is the whole uncovered set. Scoring each
		// returned vector against the uncovered set fans out across the
		// worker pool into fixed slots of the scores array, and the
		// argmax scans in T order, so the selected center is identical
		// for every worker count and chunking is invisible (FromCenters
		// itself matches a serial FromCenter loop). OracleCalls counts
		// per-center answers, matching the serial loop's accounting.
		best := -1
		var bestSelEst []float64
		scoreWorlds := p.R
		if p.Adaptive != nil {
			// Confidence-target racing instead of fixed-budget scoring: see
			// adaptiveSelect for the pruning rule and the determinism note.
			var calls int
			var err error
			best, bestSelEst, scoreWorlds, calls, err = adaptiveSelect(ctx, o, uncovered, tsize, selThresh, p)
			if err != nil {
				return nil, err
			}
			res.OracleCalls += calls
		} else {
			scores := make([]int, tsize)
			for base := 0; base < tsize; base += p.chunk() {
				end := base + p.chunk()
				if end > tsize {
					end = tsize
				}
				ests, err := o.FromCentersCtx(ctx, uncovered[base:end:end], p.DepthSel, p.R)
				if err != nil {
					return nil, err
				}
				scoreAt := func(i int) {
					est := ests[i-base]
					score := 0
					for _, u := range uncovered {
						if est[u] >= selThresh {
							score++
						}
					}
					scores[i] = score
				}
				if workers := p.workers(); workers > 1 && end-base > 1 {
					if workers > end-base {
						workers = end - base
					}
					var next atomic.Int64
					next.Store(int64(base))
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for {
								i := int(next.Add(1)) - 1
								if i >= end {
									return
								}
								scoreAt(i)
							}
						}()
					}
					wg.Wait()
				} else {
					for i := base; i < end; i++ {
						scoreAt(i)
					}
				}
				for i := base; i < end; i++ {
					if best < 0 || scores[i] > scores[best] {
						best, bestSelEst = i, ests[i-base]
					}
				}
			}
			res.OracleCalls += tsize
		}
		ci := uncovered[best]
		clusterIdx := int32(len(cl.Centers))
		cl.Centers = append(cl.Centers, ci)
		isCenter[ci] = true

		// Removal estimates use Depth; reuse the selection vector when the
		// depths coincide (the practical configuration).
		remEst := bestSelEst
		if p.Depth != p.DepthSel {
			var err error
			remEst, err = o.FromCenterCtx(ctx, ci, p.Depth, p.R)
			if err != nil {
				return nil, err
			}
			res.OracleCalls++
		}
		absorb(clusterIdx, remEst)

		// Line 8: remove the q-disk of ci from V'.
		// Snapshot since remove() mutates the slice.
		snap := make([]graph.NodeID, len(uncovered))
		copy(snap, uncovered)
		for _, u := range snap {
			if remEst[u] >= remThresh || u == ci {
				remove(u)
			}
		}
		if p.Progress != nil {
			p.Progress(ProgressEvent{
				Centers: len(cl.Centers), K: k,
				Covered: n - len(uncovered), Nodes: n,
				OracleCalls: res.OracleCalls,
				ScoreWorlds: scoreWorlds,
			})
		}
	}

	// Lines 10-11: top up with arbitrary extra centers if coverage finished
	// early. Extra centers still contribute their estimate vectors so that
	// assignment can exploit them.
	for len(cl.Centers) < k {
		var extra graph.NodeID = -1
		if len(uncovered) > 0 {
			extra = uncovered[rnd.Intn(len(uncovered))]
		} else {
			// All nodes covered: pick a random non-center.
			for tries := 0; tries < 4*n; tries++ {
				cand := graph.NodeID(rnd.Intn(n))
				if !isCenter[cand] {
					extra = cand
					break
				}
			}
			if extra < 0 {
				break // k >= n and all nodes are centers already
			}
		}
		clusterIdx := int32(len(cl.Centers))
		cl.Centers = append(cl.Centers, extra)
		isCenter[extra] = true
		est, err := o.FromCenterCtx(ctx, extra, p.Depth, p.R)
		if err != nil {
			return nil, err
		}
		res.OracleCalls++
		absorb(clusterIdx, est)
		remove(extra)
		if p.Progress != nil {
			p.Progress(ProgressEvent{
				Centers: len(cl.Centers), K: k,
				Covered: n - len(uncovered), Nodes: n,
				OracleCalls: res.OracleCalls,
				ScoreWorlds: p.R,
			})
		}
	}

	// Line 12: assign covered nodes (V - V') to their best center.
	for u := 0; u < n; u++ {
		if pos[u] >= 0 {
			continue // still uncovered
		}
		cl.Assign[u] = res.BestIdx[u]
		cl.Prob[u] = res.BestProb[u]
	}
	// Centers own themselves with probability 1.
	for i, ctr := range cl.Centers {
		cl.Assign[ctr] = int32(i)
		cl.Prob[ctr] = 1
		res.BestIdx[ctr] = int32(i)
		res.BestProb[ctr] = 1
	}
	return res, nil
}
