package core

import (
	"context"
	"fmt"

	"ucgraph/internal/conn"
	"ucgraph/internal/rng"
)

// ACP solves the Average Connection Probability problem (Definition 1) with
// Algorithm 3: sweep decreasing probability guesses, keep the completed
// partial clustering with the best average connection probability phi, and
// stop as soon as smaller guesses cannot beat the incumbent.
//
// With the default options it follows the practical configuration of
// Section 5: min-partial is invoked with parameters (G, k, q, 1, q) — the
// removal threshold is the guess itself rather than q^3 — and the guesses
// follow the accelerated schedule q_i = max{1 - gamma*2^i, PL}. The sweep
// stops when the current removal threshold drops below the incumbent phi
// (the Algorithm 3 condition "q^3 >= phi_best" expressed in terms of the
// removal threshold) or reaches the floor PL.
//
// Options.Geometric switches to the literal Algorithm 3 loop: removal
// threshold q^3, selection threshold q, alpha = n unless overridden, and
// q <- q/(1+gamma). One deliberate deviation: Algorithm 3 as printed keeps
// the same q after an improving iteration, which with a deterministic
// oracle and alpha = n would re-run an identical invocation forever; we
// always advance q, which preserves the Theorem 4 analysis (every guess in
// the schedule is still tried, and the incumbent keeps the maximum phi).
//
// The returned clustering C satisfies, w.h.p.,
// avg-prob(C) >= (1-eps) * (p_opt-avg(k) / ((1+gamma) H(n)))^3  (Theorem 8).
func ACP(o conn.ContextOracle, k int, opt Options) (*Clustering, Stats, error) {
	return ACPCtx(context.Background(), o, k, opt)
}

// ACPCtx is ACP with cooperative cancellation, following the same contract
// as MCPCtx: a deadline or cancellation aborts the sweep mid-estimation
// and surfaces as ctx's error; a nil-error run is bit-identical to ACP.
func ACPCtx(ctx context.Context, o conn.ContextOracle, k int, opt Options) (*Clustering, Stats, error) {
	n := o.NumNodes()
	if k < 1 || k >= n {
		return nil, Stats{}, fmt.Errorf("core: k = %d out of range [1, %d)", k, n)
	}
	opt = opt.withDefaults(n)
	rnd := rng.NewXoshiro256(rng.Stream(opt.Seed, 0x414350)) // "ACP" stream
	var st Stats

	// acpDepthSel: the practical configuration reuses d for selection, the
	// theoretical one uses floor(d/3) per Lemma 7.
	depthSel := opt.Depth
	if opt.Depth >= 0 && opt.TheoreticalDepthSel {
		depthSel = opt.Depth / 3
	}

	// try runs min-partial with removal threshold rem and selection
	// threshold sel; the sample size is tuned for estimating rem reliably.
	try := func(rem, sel float64) (*PartialResult, error) {
		r := opt.Schedule.Samples(rem)
		if r > st.MaxSamples {
			st.MaxSamples = r
		}
		alpha := opt.Alpha
		if opt.Geometric && opt.Alpha == 1 {
			alpha = -1 // literal Algorithm 3 uses alpha = n
		}
		res, err := MinPartialCtx(ctx, o, rnd, PartialParams{
			K: k, Q: rem, QBar: sel, Alpha: alpha,
			Depth: opt.Depth, DepthSel: depthSel,
			R: r, Eps: opt.Eps, Parallelism: opt.Parallelism,
			ScoreChunk: opt.ScoreChunk,
			Adaptive:   opt.Adaptive,
			Progress:   opt.Progress,
		})
		if err != nil {
			return nil, err
		}
		st.Invocations++
		st.OracleCalls += res.OracleCalls
		return res, nil
	}

	var (
		best    *Clustering
		phiBest = -1.0
	)
	consider := func(res *PartialResult, q float64) {
		phi := res.Clustering.AvgProb() // partial phi: uncovered contribute 0
		if phi > phiBest {
			phiBest = phi
			st.FinalQ = q
			cl := res.Clustering.Clone()
			cl.Complete(res.BestIdx, res.BestProb)
			best = cl
		}
	}

	if opt.Geometric {
		// Line 1 of Algorithm 3: min-partial(G, k, 1, n, 1).
		res, err := try(1, 1)
		if err != nil {
			return nil, st, err
		}
		consider(res, 1)
		q := 1 / (1 + opt.Gamma)
		for q*q*q >= phiBest && q >= opt.PL {
			if res, err = try(q*q*q, q); err != nil {
				return nil, st, err
			}
			consider(res, q)
			q = q / (1 + opt.Gamma)
		}
		if best == nil {
			return nil, st, ErrNoClustering
		}
		return best, st, nil
	}

	// Practical accelerated sweep: thresholds 1, 0.9, 0.8, 0.6, 0.2, PL.
	res, err := try(1, 1)
	if err != nil {
		return nil, st, err
	}
	consider(res, 1)
	for i := 0; ; i++ {
		t := 1 - opt.Gamma*float64(int64(1)<<uint(i))
		if t < opt.PL {
			t = opt.PL
		}
		if t < phiBest {
			break // smaller thresholds cannot beat the incumbent
		}
		if res, err = try(t, t); err != nil {
			return nil, st, err
		}
		consider(res, t)
		if t <= opt.PL {
			break
		}
	}
	if best == nil {
		return nil, st, ErrNoClustering
	}
	return best, st, nil
}
