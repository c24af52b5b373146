package conn

import (
	"context"
	"fmt"
	"math"

	"ucgraph/internal/graph"
	"ucgraph/internal/obs"
	"ucgraph/internal/worldstore"
)

// This file implements confidence-target ("adaptive") estimation over any
// ContextOracle: instead of a fixed world budget, the caller supplies an
// additive accuracy target (eps, delta) and the driver consumes worlds from
// the shared deterministic stream in block-aligned doubling rounds, stopping
// as soon as every tracked estimate's confidence interval has half-width at
// most eps. Because each round is an ordinary FromCentersCtx call, the
// estimates at every round are bit-identical to the fixed-budget path at the
// same consumed-world count — the same tallies over the same worlds — for
// every oracle that honors the standing determinism invariant (MonteCarlo
// locally, shard.Coordinator across a fleet: each round extends the cached
// tallies, so a sharded adaptive round scatters only the not-yet-consumed
// world range to the workers).
//
// The guarantee is additive, unlike the relative-error stopping rule in
// adaptive.go: with probability at least 1-delta, EVERY tracked quantity
// (each (center, target) pair; all nodes when no targets are given)
// satisfies |estimate - p| <= eps at the round the driver reports
// convergence. The confidence budget is union-bounded across rounds and
// tracked quantities, and each individual interval is the tighter of a
// Hoeffding bound and a Maurer-Pontil empirical-Bernstein bound — the
// latter is what makes early stopping pay off: probabilities near 0 or 1
// have small empirical variance and converge in far fewer worlds than the
// distribution-free Hoeffding rate.

// DefaultAdaptiveMaxWorlds caps an adaptive run when AdaptiveParams leaves
// MaxWorlds unset.
const DefaultAdaptiveMaxWorlds = 1 << 20

// AdaptiveParams configures a confidence-target estimation run.
type AdaptiveParams struct {
	// Eps is the additive accuracy target: the run converges when every
	// tracked estimate is within Eps of the true probability with
	// confidence 1-Delta. Must be in (0, 1).
	Eps float64
	// Delta is the failure probability budget, union-bounded across all
	// rounds and tracked quantities. Must be in (0, 1).
	Delta float64
	// MaxWorlds is the hard world budget: a run that has not converged
	// after MaxWorlds worlds stops with Converged = false (the estimates
	// are still exact tallies over that many worlds). <= 0 selects
	// DefaultAdaptiveMaxWorlds.
	MaxWorlds int
	// MinWorlds is the first round's world target, rounded up to the
	// store's block size. <= 0 selects one block.
	MinWorlds int
}

// Validate reports whether the parameters are usable. NaN targets are
// rejected explicitly: NaN fails every ordered comparison, so a plain
// range check would silently accept it.
func (p AdaptiveParams) Validate() error {
	if !validEpsDelta(p.Eps, p.Delta) {
		return fmt.Errorf("conn: adaptive eps=%v delta=%v must both be in (0,1)", p.Eps, p.Delta)
	}
	return nil
}

// validEpsDelta checks eps, delta in (0,1), treating NaN as invalid.
func validEpsDelta(eps, delta float64) bool {
	if math.IsNaN(eps) || math.IsNaN(delta) {
		return false
	}
	return eps > 0 && eps < 1 && delta > 0 && delta < 1
}

// maxWorlds resolves the effective budget.
func (p AdaptiveParams) maxWorlds() int {
	if p.MaxWorlds > 0 {
		return p.MaxWorlds
	}
	return DefaultAdaptiveMaxWorlds
}

// AdaptiveSnapshot is one refinement round's state, handed to the progress
// callback (and streamed to clients by the server's progressive mode).
type AdaptiveSnapshot struct {
	// Estimates holds one estimate vector per requested center, exactly as
	// FromCenters would return them for Worlds samples.
	Estimates [][]float64
	// HalfWidth is the largest confidence-interval half-width across the
	// tracked quantities at this round.
	HalfWidth float64
	// Worlds is the number of worlds consumed so far.
	Worlds int
	// Converged reports whether HalfWidth <= Eps.
	Converged bool
	// Final marks the last snapshot of the run (converged or budget hit).
	Final bool
}

// AdaptiveStats summarizes a finished adaptive run.
type AdaptiveStats struct {
	// Worlds is the number of worlds consumed; Budget the cap the run
	// would have spent without early stopping. Budget - Worlds is the
	// early-stopping saving.
	Worlds, Budget int
	// Rounds counts the refinement rounds executed.
	Rounds int
	// HalfWidth is the final maximum half-width; Converged whether it
	// reached Eps within the budget.
	HalfWidth float64
	Converged bool
}

// storeProvider is implemented by oracles backed by a shared world store
// (conn.MonteCarlo, shard.Coordinator); the driver aligns its rounds to the
// store's block size so every round consumes whole blocks.
type storeProvider interface {
	Store() *worldstore.Store
}

// adaptiveBlock resolves the round alignment for an oracle.
func adaptiveBlock(o ContextOracle) int {
	if sp, ok := o.(storeProvider); ok {
		return sp.Store().BlockWorlds()
	}
	return 64
}

// adaptiveSchedule returns the doubling world schedule: block-aligned
// targets starting at max(minWorlds, one block), doubling until the budget
// (the final round is exactly the budget). The schedule is a pure function
// of its arguments, so a run is deterministic for fixed parameters.
func adaptiveSchedule(block, budget, minWorlds int) []int {
	if block < 1 {
		block = 1
	}
	first := minWorlds
	if first < block {
		first = block
	}
	first = (first + block - 1) / block * block
	if first > budget {
		first = budget
	}
	var sched []int
	for r := first; ; r *= 2 {
		if r >= budget {
			sched = append(sched, budget)
			return sched
		}
		sched = append(sched, r)
	}
}

// AdaptiveScheduleFor returns the block-aligned doubling world schedule an
// adaptive run over o follows for the given budget and first-round target.
// Exported so other adaptive consumers (core's racing candidate scorer)
// share the same alignment rules — and therefore the same determinism.
func AdaptiveScheduleFor(o ContextOracle, budget, minWorlds int) []int {
	return adaptiveSchedule(adaptiveBlock(o), budget, minWorlds)
}

// HalfWidth returns the two-sided (1-delta)-confidence half-width the
// adaptive driver assigns to a Bernoulli mean estimated as phat over r
// worlds. Exported for the other layers of the adaptive stack (core's
// racing scorer, the server's streamed frames).
func HalfWidth(phat float64, r int, delta float64) float64 {
	return halfWidth(phat, r, delta)
}

// halfWidth returns a two-sided (1-delta)-confidence half-width for a
// Bernoulli mean estimated as phat over r worlds: the tighter of the
// Hoeffding bound and the Maurer-Pontil empirical-Bernstein bound, each
// charged delta/2 so the minimum is valid at delta overall.
func halfWidth(phat float64, r int, delta float64) float64 {
	if r <= 1 {
		return 1
	}
	l := math.Log(4 / delta) // ln(2/(delta/2))
	rf := float64(r)
	hoeff := math.Sqrt(l / (2 * rf))
	// Unbiased sample variance of r Bernoulli draws with mean phat.
	vn := phat * (1 - phat) * rf / (rf - 1)
	eb := math.Sqrt(2*vn*l/rf) + 7*l/(3*(rf-1))
	hw := math.Min(hoeff, eb)
	if hw > 1 {
		hw = 1
	}
	return hw
}

// AdaptiveFromCenters estimates connection probabilities from cs to an
// additive (eps, delta) target, consuming worlds in block-aligned doubling
// rounds through o.FromCentersCtx and stopping at the first round where
// every tracked quantity's interval has closed to eps. Tracked quantities
// are (center, target) for every target when targets is non-empty, and
// (center, node) for every node otherwise. The returned estimates are the
// final round's vectors — bit-identical to o.FromCenters(cs, depth,
// stats.Worlds) — so callers that later need the fixed-budget answer at the
// consumed count can reproduce it exactly.
//
// progress, when non-nil, is called once per round with that round's
// snapshot; returning an error aborts the run (the server uses this to
// stream refining frames and to stop when a client disconnects). The run
// is deterministic for a fixed (oracle seed, cs, depth, targets, params):
// the schedule, the per-round estimates, and therefore the stopping round
// are all pure functions of those inputs.
func AdaptiveFromCenters(ctx context.Context, o ContextOracle, cs []graph.NodeID, depth int, targets []graph.NodeID, p AdaptiveParams, progress func(AdaptiveSnapshot) error) ([][]float64, AdaptiveStats, error) {
	if err := p.Validate(); err != nil {
		return nil, AdaptiveStats{}, err
	}
	if len(cs) == 0 {
		return nil, AdaptiveStats{}, fmt.Errorf("conn: adaptive query needs at least one center")
	}
	budget := p.maxWorlds()
	sched := adaptiveSchedule(adaptiveBlock(o), budget, p.MinWorlds)
	tracked := len(targets)
	if tracked == 0 {
		tracked = o.NumNodes()
	}
	tracked *= len(cs)
	// Per-quantity, per-round confidence share: the union bound over the
	// full schedule and every tracked quantity keeps the total failure
	// probability at Delta even though intermediate rounds peek at the
	// data.
	deltaQ := p.Delta / (float64(len(sched)) * float64(tracked))
	st := AdaptiveStats{Budget: budget}
	var ests [][]float64
	for _, r := range sched {
		// One trace span per adaptive round (a no-op on untraced
		// queries): the estimator's doubling loop is where adaptive
		// latency lives, and the round's convergence state is the fact an
		// operator reading the trace needs. Observation only — the
		// schedule and estimates are untouched.
		rctx, sp := obs.StartSpan(ctx, "adaptive_round")
		sp.Set("round", int64(st.Rounds))
		sp.Set("worlds", int64(r))
		var err error
		ests, err = o.FromCentersCtx(rctx, cs, depth, r)
		if err != nil {
			sp.Set("error", err.Error())
			sp.End()
			return nil, st, err
		}
		st.Rounds++
		st.Worlds = r
		hw := 0.0
		for _, est := range ests {
			if len(targets) > 0 {
				for _, t := range targets {
					if h := halfWidth(est[t], r, deltaQ); h > hw {
						hw = h
					}
				}
			} else {
				for _, e := range est {
					if h := halfWidth(e, r, deltaQ); h > hw {
						hw = h
					}
				}
			}
		}
		st.HalfWidth = hw
		st.Converged = hw <= p.Eps
		final := st.Converged || r >= budget
		sp.Set("half_width", hw)
		sp.Set("converged", st.Converged)
		sp.End()
		if progress != nil {
			snap := AdaptiveSnapshot{
				Estimates: ests,
				HalfWidth: hw,
				Worlds:    r,
				Converged: st.Converged,
				Final:     final,
			}
			if err := progress(snap); err != nil {
				return nil, st, err
			}
		}
		if final {
			break
		}
	}
	return ests, st, nil
}

// AdaptivePairInterval is the pair form of AdaptiveFromCenters: it
// estimates Pr(u ~depth v) to the additive (eps, delta) target by tracking
// the single quantity (u, v) through the center-tally path, so repeated
// adaptive pair queries against a long-lived oracle extend cached tallies
// instead of rescanning. The returned probability equals
// o.FromCenter(u, depth, stats.Worlds)[v] bit-for-bit.
func AdaptivePairInterval(ctx context.Context, o ContextOracle, u, v graph.NodeID, depth int, p AdaptiveParams, progress func(AdaptiveSnapshot) error) (float64, AdaptiveStats, error) {
	ests, st, err := AdaptiveFromCenters(ctx, o, []graph.NodeID{u}, depth, []graph.NodeID{v}, p, progress)
	if err != nil {
		return 0, st, err
	}
	return ests[0][v], st, nil
}
