package shard

import (
	"fmt"
	"math"

	"pnn/internal/geo"
	"pnn/internal/inference"
)

// This file is the exact refinement step between the UST-tree filter
// and the Monte-Carlo sampling. The filter (Section 6) prunes with
// per-timestep MBRs of each object's reachability diamond; every
// adapted sampler, however, knows the exact set of states it can emit
// at each timestep (its posterior support, Section 5). Over those
// supports a row's distance to q(t) lies in an exact range
// [dmin(t), dmax(t)] in every possible world, and the nonzero-NN test
// for discrete uncertain points (Agarwal et al., arXiv:1606.00112)
// applies: at time t, at least k rows alive at t are never farther
// than thr(t), the k-th smallest dmax over the rows alive at t, so a
// row with dmin(t) > thr(t) is strictly farther than k others in every
// world. A row failing that test at every time where it is alive is
// never among the k nearest and never changes anyone's k-th distance:
// dropping it leaves every other row's counts, masks and intervals as
// they were, and its own are zero, which the evaluators' virtual-zero-
// row rule already treats as absent. Rows draw from private (seed,
// object ID) generators, so dropping one shifts no other row's worlds.
//
// The refined sets do not depend on the shard layout. Every object the
// filter prunes in any layout has its MBR distance, hence its exact
// dmin, above that layout's threshold, which is never below thr(t);
// so the k smallest dmax at t, and every row passing the test, are
// present in every layout's influencer set.

// supportBounds fills, for each t in [ts, ts+len(qpts)), the exact
// range of the distance between q(t) = qpts[t-ts] and the states smp
// can emit at t: dmin[t-ts] and dmax[t-ts] are the smallest and largest
// pts[s].Dist(q(t)) over smp.Support(t) — the very expression
// nn.WorldBatch evaluates on sampled states, so every sampled distance
// lies inside its bounds bit for bit. Both are +Inf where the object
// is dead at t.
func supportBounds(smp *inference.Sampler, pts, qpts []geo.Point, ts int, dmin, dmax []float64) {
	inf := math.Inf(1)
	for ti, qp := range qpts {
		supp := smp.Support(ts + ti)
		if len(supp) == 0 {
			dmin[ti], dmax[ti] = inf, inf
			continue
		}
		lo, hi := inf, math.Inf(-1)
		for _, s := range supp {
			d := pts[s].Dist(qp)
			lo = min(lo, d)
			hi = max(hi, d)
		}
		dmin[ti], dmax[ti] = lo, hi
	}
}

// checkBounds verifies that every row carries distance bounds for each
// of the nT window timesteps.
func checkBounds(rows []GatherRow, nT int) error {
	for i, r := range rows {
		if len(r.DMin) != nT || len(r.DMax) != nT {
			return fmt.Errorf("shard: row %d (object %d) has %d/%d distance bounds, window needs %d",
				i, r.ID, len(r.DMin), len(r.DMax), nT)
		}
	}
	return nil
}

// refineRows applies the exact refinement to rows (whose bounds must
// cover nT timesteps) for a k-NN query. It returns the surviving rows in
// their original order, the ∀ candidates among cands that survive —
// alive throughout the window with dmin(t) <= thr(t) at every t — and
// groups with every row index remapped to the survivors (dropped rows
// removed). Nothing is modified in place.
func refineRows(k, nT int, rows []GatherRow, cands []int, groups [][]int) ([]GatherRow, []int, [][]int) {
	thr := thresholds(k, nT, rows)
	newIdx := make([]int, len(rows))
	kept := make([]GatherRow, 0, len(rows))
	for i, r := range rows {
		newIdx[i] = -1
		for ti, lo := range r.DMin {
			if !math.IsInf(lo, 1) && lo <= thr[ti] {
				newIdx[i] = len(kept)
				kept = append(kept, r)
				break
			}
		}
	}
	keptCands := make([]int, 0, len(cands))
	for _, ri := range cands {
		if newIdx[ri] < 0 {
			continue
		}
		always := true
		for ti, lo := range rows[ri].DMin {
			if math.IsInf(lo, 1) || lo > thr[ti] {
				always = false
				break
			}
		}
		if always {
			keptCands = append(keptCands, newIdx[ri])
		}
	}
	keptGroups := make([][]int, 0, len(groups))
	for _, grp := range groups {
		ng := make([]int, 0, len(grp))
		for _, ri := range grp {
			if newIdx[ri] >= 0 {
				ng = append(ng, newIdx[ri])
			}
		}
		keptGroups = append(keptGroups, ng)
	}
	return kept, keptCands, keptGroups
}

// thresholds returns thr(t) for every window offset: the k-th smallest
// dmax over the rows alive at t, +Inf when fewer than k are alive. The
// k smallest are kept in a buffer of at most len(rows) slots, never of
// the client-chosen k.
func thresholds(k, nT int, rows []GatherRow) []float64 {
	thr := make([]float64, nT)
	buf := make([]float64, 0, min(k, len(rows)))
	for ti := range thr {
		buf = buf[:0]
		for _, r := range rows {
			d := r.DMax[ti]
			if math.IsInf(d, 1) {
				continue
			}
			if len(buf) == k {
				if d >= buf[k-1] {
					continue
				}
				buf = buf[:k-1]
			}
			i := len(buf)
			buf = append(buf, d)
			for ; i > 0 && buf[i-1] > d; i-- {
				buf[i] = buf[i-1]
			}
			buf[i] = d
		}
		thr[ti] = math.Inf(1)
		if len(buf) == k {
			thr[ti] = buf[k-1]
		}
	}
	return thr
}
