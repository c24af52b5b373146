package core

import (
	"context"

	"ucgraph/internal/conn"
	"ucgraph/internal/graph"
)

// AdaptiveScoring switches min-partial candidate scoring from a fixed
// sample budget to confidence-target racing: candidates are scored on a
// doubling block-aligned world schedule, each candidate's score bracketed
// by the interval [#nodes certainly in its disk, #nodes possibly in its
// disk] derived from per-node (eps, delta) confidence bounds, and a
// candidate is pruned as soon as its upper bound falls below another's
// lower bound — it can no longer be the argmax. Pruned candidates stop
// consuming worlds, which is where the saving comes from: with alpha
// candidates per iteration, the fixed path always spends alpha * R
// center-extensions while racing spends the full R only on the survivors
// (typically one).
//
// The selected center may differ from the fixed-budget path's choice —
// adaptive mode trades the cross-budget bit-identity invariant for the
// confidence guarantee — but a run is still fully deterministic for a
// fixed (oracle seed, driver seed, params): the schedule, the per-round
// estimates and hence every pruning decision are pure functions of those
// inputs. The winner's estimate vector is always refined to the full
// budget R before the removal step, so coverage decisions keep
// fixed-budget precision.
type AdaptiveScoring struct {
	// Eps is the per-node additive accuracy driving the score intervals;
	// Delta the failure-probability budget, union-bounded across rounds,
	// candidates and nodes. Both must be in (0, 1).
	Eps, Delta float64
	// MinWorlds is the first round's world target (rounded up to the
	// store's block size; <= 0 selects one block).
	MinWorlds int
}

// ProgressEvent reports one center selection of a min-partial run to the
// PartialParams.Progress hook — the unit of progress the server streams to
// clients of a progressive clustering request.
type ProgressEvent struct {
	// Centers is the number of centers selected so far; K the target.
	Centers, K int
	// Covered is the number of nodes no longer uncovered; Nodes the total.
	Covered, Nodes int
	// OracleCalls is the cumulative per-center oracle answer count.
	OracleCalls int
	// ScoreWorlds is the world count the latest selection's scoring
	// reached: R on the fixed path, the racing stopping point when
	// adaptive scoring pruned early.
	ScoreWorlds int
}

// adaptiveSelect races the first tsize candidates of uncovered against
// each other and returns the winning candidate's index (in T order), its
// estimate vector refined to the full budget p.R, the world count the
// racing reached, and the per-center oracle answers consumed.
func adaptiveSelect(ctx context.Context, o conn.ContextOracle, uncovered []graph.NodeID, tsize int, selThresh float64, p PartialParams) (int, []float64, int, int, error) {
	a := p.Adaptive
	budget := p.R
	calls := 0
	n := o.NumNodes()

	// A single candidate needs no racing: fetch it at full precision.
	if tsize == 1 {
		est, err := o.FromCenterCtx(ctx, uncovered[0], p.DepthSel, budget)
		if err != nil {
			return 0, nil, 0, 0, err
		}
		return 0, est, budget, 1, nil
	}

	sched := conn.AdaptiveScheduleFor(o, budget, a.MinWorlds)
	// Confidence share per (round, candidate, node): the union bound over
	// everything ever compared keeps the total failure probability at
	// Delta.
	deltaQ := a.Delta / (float64(len(sched)) * float64(tsize) * float64(n))

	active := make([]int, tsize)
	for i := range active {
		active[i] = i
	}
	ests := make([][]float64, tsize)
	r := 0
	for si, rr := range sched {
		r = rr
		for base := 0; base < len(active); base += p.chunk() {
			end := base + p.chunk()
			if end > len(active) {
				end = len(active)
			}
			cands := make([]graph.NodeID, end-base)
			for j, ai := range active[base:end] {
				cands[j] = uncovered[ai]
			}
			batch, err := o.FromCentersCtx(ctx, cands, p.DepthSel, r)
			if err != nil {
				return 0, nil, 0, 0, err
			}
			for j, ai := range active[base:end] {
				ests[ai] = batch[j]
			}
		}
		calls += len(active)

		// Score interval per candidate: lo counts nodes certainly inside
		// the selection disk (estimate clears the threshold even after
		// subtracting the confidence half-width), hi counts nodes possibly
		// inside. A candidate whose hi is below the best lo cannot win.
		lo := make([]int, tsize)
		hi := make([]int, tsize)
		maxLo := -1
		maxHW := 0.0
		for _, ai := range active {
			est := ests[ai]
			cLo, cHi := 0, 0
			for _, u := range uncovered {
				hw := conn.HalfWidth(est[u], r, deltaQ)
				if hw > maxHW {
					maxHW = hw
				}
				if est[u]-hw >= selThresh {
					cLo++
				}
				if est[u]+hw >= selThresh {
					cHi++
				}
			}
			lo[ai], hi[ai] = cLo, cHi
			if cLo > maxLo {
				maxLo = cLo
			}
		}
		keep := active[:0]
		for _, ai := range active {
			if hi[ai] >= maxLo {
				keep = append(keep, ai)
			}
		}
		active = keep
		// Stop when a single survivor remains, when every per-node interval
		// has closed to Eps (surviving candidates are then ties within the
		// accuracy target — point argmax resolves them), or at the budget.
		if len(active) == 1 || maxHW <= a.Eps || si == len(sched)-1 {
			break
		}
	}

	// Winner among the survivors at precision r: point scores, argmax in T
	// order — the same tie-breaking rule as the fixed path.
	best, bestScore := -1, -1
	for _, ai := range active {
		score := 0
		for _, u := range uncovered {
			if ests[ai][u] >= selThresh {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = ai, score
		}
	}
	bestEst := ests[best]
	if r < budget {
		// Refine only the winner to the full budget: the removal step (and
		// the streaming argmax it feeds) keeps fixed-budget precision while
		// the losers stay at their pruning precision.
		var err error
		bestEst, err = o.FromCenterCtx(ctx, uncovered[best], p.DepthSel, budget)
		if err != nil {
			return 0, nil, 0, 0, err
		}
		calls++
	}
	return best, bestEst, r, calls, nil
}
