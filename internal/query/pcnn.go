package query

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"pnn/internal/ustree"
)

// maxPCNNSets caps the number of timestamp sets a PCNN query may examine.
// Definition 3 admits result sets exponential in |T| as τ → 0 (Section
// 4.3); the cap turns pathological parameterizations into an explicit
// error rather than an effectively unbounded computation.
const maxPCNNSets = 200000

// CNN answers PCNNQ(q, D, [ts..te], tau) using Algorithm 1: for every
// candidate object an Apriori-style walk over timestamp sets, keeping a set
// Ti when P∀NN(o, q, D, Ti) >= tau and extending only sets all of whose
// subsets qualified (anti-monotonicity of P∀NN). Following the paper's
// refined definition, only maximal qualifying sets are returned.
//
// All timestamp sets of one object are evaluated against one shared pool of
// sampled worlds, so the sampling cost is paid once per object rather than
// once per lattice node.
func (e *Engine) CNN(q Query, ts, te int, tau float64, rng *rand.Rand) ([]IntervalResult, Stats, error) {
	return e.CNNK(q, ts, te, 1, tau, rng)
}

// CNNSeed is CNN with the unified seed contract: worlds are drawn from
// sub-streams of seed, as in ForAllNNSeed.
func (e *Engine) CNNSeed(q Query, ts, te int, tau float64, seed int64) ([]IntervalResult, Stats, error) {
	return e.cnnQuery(q, ts, te, 1, tau, fixedSeed(seed), Confidence{})
}

// CNNKSeed is CNNK with the unified seed contract.
func (e *Engine) CNNKSeed(q Query, ts, te, k int, tau float64, seed int64) ([]IntervalResult, Stats, error) {
	return e.cnnQuery(q, ts, te, k, tau, fixedSeed(seed), Confidence{})
}

// CNNK generalizes CNN to k nearest neighbors (PCkNNQ, Section 8): maximal
// timestamp sets on which the object stays among the k nearest with
// probability at least tau. The legacy generator signature draws the
// base seed from rng exactly where the historical implementation did —
// after the empty-influencer early return.
func (e *Engine) CNNK(q Query, ts, te, k int, tau float64, rng *rand.Rand) ([]IntervalResult, Stats, error) {
	return e.cnnQuery(q, ts, te, k, tau, rng.Int63, Confidence{})
}

// CNNKConf is CNNKSeed under an adaptive sample-budget policy: the
// lattice walk's frequencies are mined from however many worlds the
// accuracy rule needed (PCNN has no per-estimate threshold to separate
// from, so the policy stops once the Hoeffding error reaches conf.Eps).
func (e *Engine) CNNKConf(q Query, ts, te, k int, tau float64, seed int64, conf Confidence) ([]IntervalResult, Stats, error) {
	return e.cnnQuery(q, ts, te, k, tau, fixedSeed(seed), conf)
}

// cnnQuery answers PCkNNQ as a plan construction over the shared
// executor: one MaskEvaluator accumulates every world's per-timestep
// NN-set rows, then the Apriori lattice walk mines them per object.
// Sampling runs on one worker — the lattice walk needs every world's
// masks in memory anyway, so there is no budget split — which keeps the
// drawn worlds identical to the historical single-stream loop.
func (e *Engine) cnnQuery(q Query, ts, te, k int, tau float64, seed func() int64, conf Confidence) ([]IntervalResult, Stats, error) {
	var st Stats
	if q.Zero() {
		return nil, st, errZeroQuery
	}
	if te < ts {
		return nil, st, fmt.Errorf("query: inverted interval [%d, %d]", ts, te)
	}
	if tau <= 0 {
		return nil, st, fmt.Errorf("query: PCNN requires tau > 0, got %v", tau)
	}
	if k < 1 {
		return nil, st, fmt.Errorf("query: PCNN requires k >= 1, got %d", k)
	}
	var pr ustree.Pruning
	if e.noPrune {
		pr = e.timePrune(ts, te)
	} else {
		pr = e.tree.PruneK(q.At, ts, te, k)
	}
	st.Candidates = len(pr.Candidates)
	st.Influencers = len(pr.Influencers)
	// A PCNN result only needs the object to be NN during SOME subset of
	// T, so every influencer is a potential result object, as in P∃NN.
	if len(pr.Influencers) == 0 {
		return nil, st, nil
	}
	refine, samplers, adapt, built, err := e.buildSamplers(pr.Influencers)
	if err != nil {
		return nil, st, err
	}
	st.AdaptTime = adapt
	st.SamplerBuilds = built

	begin := time.Now()
	nT := te - ts + 1
	nR := len(refine)
	// The mask backing must hold the worst case the policy may draw;
	// after the run only the rows actually written are mined.
	ev := NewMaskEvaluator(k, nR, nT, conf.Budget(e.samples))
	ev.SetBound(conf)
	plan := e.NewPlan(q, ts, te, samplers, seed())
	plan.Workers = 1
	plan.Confidence = conf
	plan.Attach(ev)
	es, err := e.Execute(plan)
	if err != nil {
		return nil, st, err
	}
	masks := ev.Masks()[:es.Worlds]
	st.Worlds = es.Worlds
	st.ErrorBound = es.ErrorBound
	st.EarlyStopped = es.EarlyStopped

	var out []IntervalResult
	for li, oi := range refine {
		sets, qualifying, err := MineTimeSets(masks, li, nT, tau)
		if err != nil {
			return nil, st, err
		}
		st.LatticeSets += qualifying
		for _, s := range sets {
			times := make([]int, len(s.Offsets))
			for i, k := range s.Offsets {
				times[i] = ts + k
			}
			out = append(out, IntervalResult{Obj: oi, Times: times, Prob: s.Prob})
		}
	}
	st.RefineTime = time.Since(begin)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Obj != out[b].Obj {
			return out[a].Obj < out[b].Obj
		}
		return lessIntSlice(out[a].Times, out[b].Times)
	})
	return out, st, nil
}

// TimeSet is one maximal qualifying timestamp set of the PCNN lattice
// walk: ascending offsets into the query window plus its estimated
// probability.
type TimeSet struct {
	Offsets []int // ascending offsets into [0, nT)
	Prob    float64
}

// MineTimeSets runs the Apriori lattice walk (Algorithm 1) for one
// object over precomputed per-world NN masks, returning the maximal
// qualifying sets plus the total number of qualifying sets found (the
// paper's "unprocessed result set" size). masks[w][li*nT+j] reports
// whether the object at row li satisfied the NN predicate at window
// offset j in world w — the layout both Engine.CNNK and the sharded
// scatter-gather executor produce, which is why the miner is exported:
// the lattice walk is identical however the worlds were sampled.
func MineTimeSets(masks [][]bool, li, nT int, tau float64) ([]TimeSet, int, error) {
	worlds := worldBitsets(masks, li, nT)
	support := func(items []int) float64 {
		return float64(supportCount(worlds, items)) / float64(len(masks))
	}

	// L1 (Algorithm 1, line 1).
	var level []TimeSet
	for k := 0; k < nT; k++ {
		if p := support([]int{k}); p >= tau {
			level = append(level, TimeSet{Offsets: []int{k}, Prob: p})
		}
	}
	all := append([]TimeSet(nil), level...)
	examined := len(level)

	// Iterate k = 2.. (lines 2-5).
	for len(level) > 0 {
		prevKeys := make(map[string]bool, len(level))
		for _, s := range level {
			prevKeys[key(s.Offsets)] = true
		}
		var next []TimeSet
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				cand, ok := join(level[i].Offsets, level[j].Offsets)
				if !ok {
					continue
				}
				if !allSubsetsIn(cand, prevKeys) {
					continue
				}
				examined++
				if examined > maxPCNNSets {
					return nil, 0, fmt.Errorf(
						"query: PCNN lattice exceeded %d candidate sets; raise tau or shorten T", maxPCNNSets)
				}
				if p := support(cand); p >= tau {
					next = append(next, TimeSet{Offsets: cand, Prob: p})
				}
			}
		}
		all = append(all, next...)
		level = next
	}

	// Keep only maximal sets (Definition 3, refined form).
	var out []TimeSet
	for i, s := range all {
		maximal := true
		for j, t := range all {
			if i != j && len(t.Offsets) > len(s.Offsets) && isSubset(s.Offsets, t.Offsets) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, s)
		}
	}
	return out, len(all), nil
}

// worldBitsets transposes row li of the per-world masks into one world
// bitset per window offset: bit w of sets[j] is masks[w][li*nT+j]. The
// lattice walk then counts a set's support by AND + popcount over
// ⌈worlds/64⌉ words instead of rescanning every world's mask.
func worldBitsets(masks [][]bool, li, nT int) [][]uint64 {
	words := (len(masks) + 63) / 64
	backing := make([]uint64, nT*words)
	sets := make([][]uint64, nT)
	for j := range sets {
		sets[j] = backing[j*words : (j+1)*words]
	}
	for w, row := range masks {
		for j, in := range row[li*nT : (li+1)*nT] {
			if in {
				sets[j][w/64] |= 1 << (w % 64)
			}
		}
	}
	return sets
}

// supportCount returns the number of worlds in which the object was
// among the k nearest at every offset of items (non-empty): the
// popcount of the AND of the items' world bitsets.
func supportCount(sets [][]uint64, items []int) int {
	count := 0
	for wi, word := range sets[items[0]] {
		for _, k := range items[1:] {
			word &= sets[k][wi]
		}
		count += bits.OnesCount64(word)
	}
	return count
}

// join merges two sorted k-sets sharing their first k-1 elements into a
// (k+1)-set — the classic Apriori candidate generation.
func join(a, b []int) ([]int, bool) {
	n := len(a)
	for i := 0; i < n-1; i++ {
		if a[i] != b[i] {
			return nil, false
		}
	}
	if a[n-1] >= b[n-1] {
		return nil, false
	}
	out := make([]int, n+1)
	copy(out, a)
	out[n] = b[n-1]
	return out, true
}

// allSubsetsIn checks the Apriori prune condition: every (k-1)-subset of
// cand must have qualified in the previous level.
func allSubsetsIn(cand []int, prev map[string]bool) bool {
	sub := make([]int, 0, len(cand)-1)
	for drop := 0; drop < len(cand); drop++ {
		sub = sub[:0]
		for i, v := range cand {
			if i != drop {
				sub = append(sub, v)
			}
		}
		if !prev[key(sub)] {
			return false
		}
	}
	return true
}

func key(items []int) string {
	b := make([]byte, 0, len(items)*3)
	for _, v := range items {
		b = append(b, byte(v), byte(v>>8), ',')
	}
	return string(b)
}

func isSubset(a, b []int) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
