package inference

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// Sampler draws possible trajectories of one object from its a-posteriori
// model F(t). Every drawn path starts at the first observation, ends at the
// last, and passes through every observation in between with probability 1
// (Section 5.2.3). A Sampler is safe for concurrent use as long as each
// goroutine supplies its own generator.
type Sampler struct {
	model *Model
	// steps[t-start] is the fused alias table of F(t), aligned with the
	// flat adapted matrix: drawing a transition is one entry load and
	// one comparison — no binary search anywhere in the walk.
	steps [][]aliasEntry
	// post[t-start] is the posterior marginal at t, used to draw the
	// entry state of window-restricted samples.
	post []entryDist
}

// NewSampler precomputes alias tables and entry distributions from the
// adapted model. The tables live as long as the sampler, which engines
// cache per object — the build cost is paid once per adaptation, the
// O(1) draws on every one of the millions of transitions sampled after.
func NewSampler(m *Model) *Sampler {
	n := m.end - m.start
	s := &Sampler{
		model: m,
		steps: make([][]aliasEntry, n),
		post:  make([]entryDist, n+1),
	}
	sc := &aliasScratch{}
	// Walk time backwards: when the loop reaches t, the scratch still
	// indexes F(t+1) from the previous iteration — exactly the lookup
	// the t → t+1 tables need for their next-row spans (empty at
	// t == end-1, where no matrix leaves the final timestep).
	for t := m.end; t >= m.start; t-- {
		if t < m.end {
			s.steps[t-m.start] = buildStepTable(m.transitionAdj(t), m.transitionAdj(t+1), sc)
		}
		sc.index(m.transitionAdj(t)) // nil at t == end: de-indexes
		s.post[t-m.start] = entryOf(m.Posterior(t), m.transitionAdj(t), sc)
	}
	return s
}

// step draws the successor of the state whose row in F(t) spans
// [lo, lo+n) from one 64-bit uniform draw, returning the successor
// state and its row span in F(t+1) (n == 0 when t+1 is the model end).
func (s *Sampler) step(t int, lo, n int32, u uint64) (int32, int32, int32) {
	ents := s.steps[t-s.model.start]
	k := pick(ents, lo, n, u)
	return s.model.f[t-s.model.start].dst[k], ents[k].nextLo, ents[k].nextN
}

func noSuccessors(cur int32, t int) string {
	return fmt.Sprintf("inference: state %d at t=%d has no adapted successors", cur, t)
}

// entryOf builds both draw forms of a posterior marginal, caching each
// state's row span in a, the timestep's outgoing transition matrix,
// through the scratch lookup (which must index a; nil at the model
// end, where no matrix follows).
func entryOf(v sparse.Vec, a *adj, sc *aliasScratch) entryDist {
	ents := v.Entries()
	d := entryDist{
		states: make([]int32, len(ents)),
		cum:    make([]float64, len(ents)),
		ents:   make([]aliasEntry, len(ents)),
	}
	w := make([]float64, len(ents))
	acc, prev := 0.0, 0.0
	for k, e := range ents {
		acc += e.Val
		d.states[k] = int32(e.Idx)
		d.cum[k] = acc
		w[k] = acc - prev
		prev = acc
	}
	buildAliasRange(w, d.ents, 0, sc)
	for k, st := range d.states {
		d.ents[k].nextLo, d.ents[k].nextN = rowSpan(a, sc.lookup(st))
	}
	return d
}

// drawCum returns the slot index of one sample of the distribution
// from its cumulative form.
func (d *entryDist) drawCum(rng *rand.Rand) int {
	return d.drawAt(rng.Float64() * d.cum[len(d.cum)-1])
}

// drawAt resolves a uniform draw u ∈ [0, total) to its slot. Floating-
// point overshoot — u computed as fraction×total can round to a value
// that SearchFloat64s places past the final cumulative entry — clamps
// to the last slot.
func (d *entryDist) drawAt(u float64) int {
	k := sort.SearchFloat64s(d.cum, u)
	if k == len(d.cum) {
		k--
	}
	return k
}

// drawAlias returns the slot index of one sample of the distribution
// from one 64-bit draw through its fused alias form.
func (d *entryDist) drawAlias(u uint64) int32 {
	return pick(d.ents, 0, int32(len(d.ents)), u)
}

// SampleWindow draws the object's trajectory restricted to [ts, te] ∩
// [Start, End]: the entry state is drawn from the posterior marginal and
// subsequent states from the adapted transitions, which together realize
// the exact law of the trajectory over the window. ok is false when the
// window does not intersect the object's lifetime.
//
// Sampling only the query window instead of the whole lifetime is the
// dominant cost saving of the refinement step: query intervals are much
// shorter than object lifetimes.
func (s *Sampler) SampleWindow(rng *rand.Rand, ts, te int) (uncertain.Path, bool) {
	m := s.model
	if ts < m.start {
		ts = m.start
	}
	if te > m.end {
		te = m.end
	}
	if te < ts {
		return uncertain.Path{}, false
	}
	states := make([]int32, te-ts+1)
	ed := &s.post[ts-m.start]
	k := ed.drawCum(rng)
	cur, lo, n := ed.states[k], ed.ents[k].nextLo, ed.ents[k].nextN
	states[0] = cur
	for t := ts; t < te; t++ {
		if n == 0 {
			panic(noSuccessors(cur, t))
		}
		cur, lo, n = s.step(t, lo, n, rng.Uint64())
		states[t-ts+1] = cur
	}
	return uncertain.Path{Start: ts, States: states}, true
}

// clip intersects [ts, te] with the object's lifetime; ok is false when
// they are disjoint.
func (s *Sampler) clip(ts, te int) (cs, ce int, ok bool) {
	cs, ce = max(ts, s.model.start), min(te, s.model.end)
	return cs, ce, ce >= cs
}

// SampleWindowInto is the columnar twin of SampleWindow: it draws the
// trajectory over [ts, te] directly into dst, which must have length
// te-ts+1. dst[t-ts] receives the state at t, or -1 ("dead") where t
// falls outside the object's lifetime, the encoding nn.WorldBatch maps
// to an infinite distance. It consumes 1+L draws of rng for a window
// clipped to L transitions — the entry draw, then one per step — and
// none when the window does not intersect the lifetime (ok is false and
// dst is all -1). It is the one-world reference of SampleWindowsInto.
func (s *Sampler) SampleWindowInto(rng *mcrand.RNG, ts, te int, dst []int32) bool {
	m := s.model
	cs, ce, ok := s.clip(ts, te)
	if !ok {
		fillDead(dst)
		return false
	}
	fillDead(dst[:cs-ts])
	fillDead(dst[ce-ts+1:])
	ed := &s.post[cs-m.start]
	k := ed.drawAlias(rng.Uint64())
	cur, lo, n := ed.states[k], ed.ents[k].nextLo, ed.ents[k].nextN
	dst[cs-ts] = cur
	for t := cs; t < ce; t++ {
		if n == 0 {
			panic(noSuccessors(cur, t))
		}
		cur, lo, n = s.step(t, lo, n, rng.Uint64())
		dst[t-ts+1] = cur
	}
	return true
}

// WalkScratch is the reusable working memory of SampleWindowsInto:
// every world's current row span. The zero value is ready to use; one
// scratch must not be shared between concurrent walks.
type WalkScratch struct {
	spans []span
}

type span struct{ lo, n int32 }

// SampleWindowsInto draws n consecutive worlds of the object over
// [ts, te] into dst (length at least n·(te-ts+1), world-major: world w
// occupies dst[w·nT : (w+1)·nT] with nT = te-ts+1), byte-identical to
// n successive SampleWindowInto calls — same states, same generator
// state afterwards. It is the innermost call of the Monte-Carlo
// world-sampling kernel.
//
// The determinism contract fixes the draw order: per object, world by
// world, entry draw first, then one draw per transition, so world w's
// j-th draw is the generator's draw w·(1+L)+j+1 for a window clipped
// to L transitions. splitmix64 is a counter (see mcrand.Golden), so the
// kernel computes each of those uniforms in place from the generator's
// starting position while it walks all n worlds one timestep at a time
// — only one timestep's alias table is hot at a time and the n
// independent walks overlap their dependent loads — and then skips the
// generator past all n·(1+L) draws. ok is false when the window does
// not intersect the lifetime (no draws consumed, dst all -1).
func (s *Sampler) SampleWindowsInto(rng *mcrand.RNG, ts, te, n int, dst []int32, sc *WalkScratch) bool {
	m := s.model
	nT := te - ts + 1
	dst = dst[:n*nT]
	cs, ce, ok := s.clip(ts, te)
	if !ok {
		fillDead(dst)
		return false
	}
	if cs > ts || ce < te {
		for w := 0; w < n; w++ {
			fillDead(dst[w*nT : w*nT+cs-ts])
			fillDead(dst[w*nT+ce-ts+1 : (w+1)*nT])
		}
	}
	per := 1 + ce - cs
	if cap(sc.spans) < n {
		sc.spans = make([]span, n)
	}
	spans := sc.spans[:n]
	base := rng.Counter()
	stride := uint64(per) * mcrand.Golden
	off := cs - ts
	ed := &s.post[cs-m.start]
	x := base + mcrand.Golden
	for w := range spans {
		k := ed.drawAlias(mcrand.Mix64(x))
		x += stride
		dst[w*nT+off] = ed.states[k]
		spans[w] = span{ed.ents[k].nextLo, ed.ents[k].nextN}
	}
	for t := cs; t < ce; t++ {
		ents := s.steps[t-m.start]
		states := m.f[t-m.start].dst
		col := t - ts + 1
		x := base + uint64(t-cs+2)*mcrand.Golden
		for w := range spans {
			sp := &spans[w]
			if sp.n == 0 {
				panic(noSuccessors(dst[w*nT+col-1], t))
			}
			k := pick(ents, sp.lo, sp.n, mcrand.Mix64(x))
			x += stride
			e := &ents[k]
			dst[w*nT+col] = states[k]
			*sp = span{e.nextLo, e.nextN}
		}
	}
	rng.Skip(n * per)
	return true
}

// Support returns the states the sampler can emit at time t, in
// ascending order: the posterior support at t, which holds every entry
// state a window starting at t draws and every destination of the
// adapted transitions into t. It is nil outside the object's lifetime,
// where the object is dead. The slice is shared and must not be
// modified.
func (s *Sampler) Support(t int) []int32 {
	if t < s.model.start || t > s.model.end {
		return nil
	}
	return s.post[t-s.model.start].states
}

func fillDead(dst []int32) {
	for i := range dst {
		dst[i] = -1
	}
}

// Model returns the underlying adapted model.
func (s *Sampler) Model() *Model { return s.model }

// Sample draws one possible trajectory covering [Start, End].
func (s *Sampler) Sample(rng *rand.Rand) uncertain.Path {
	m := s.model
	states := make([]int32, m.end-m.start+1)
	cur := int32(m.obj.First().State)
	states[0] = cur
	lo, n := int32(-1), int32(0)
	if m.end > m.start {
		lo, n = rowSpan(m.f[0], int32(m.f[0].rowIndex(cur)))
	}
	for t := m.start; t < m.end; t++ {
		if n == 0 {
			panic(noSuccessors(cur, t))
		}
		cur, lo, n = s.step(t, lo, n, rng.Uint64())
		states[t-m.start+1] = cur
	}
	return uncertain.Path{Start: m.start, States: states}
}

// SampleN draws n independent trajectories.
func (s *Sampler) SampleN(rng *rand.Rand, n int) []uncertain.Path {
	out := make([]uncertain.Path, n)
	for i := range out {
		out[i] = s.Sample(rng)
	}
	return out
}

// PriorSampleResult reports the outcome of rejection-based sampling on the
// a-priori chain.
type PriorSampleResult struct {
	Path     uncertain.Path
	Attempts int // trajectory draws consumed to obtain one valid sample
}

// RejectionSample implements the traditional Monte-Carlo approach (TS1,
// Section 5.1): draw full trajectories from the first observation forward
// using the a-priori chain, discarding any that miss a later observation.
// maxAttempts bounds the work; if it is exhausted, an error is returned
// with Attempts set to maxAttempts. The expected number of attempts grows
// exponentially with the number of observations, which is exactly the
// pathology Figure 10 demonstrates.
func RejectionSample(o *uncertain.Object, rng *rand.Rand, maxAttempts int) (PriorSampleResult, error) {
	start, end := o.First().T, o.Last().T
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		states := make([]int32, end-start+1)
		cur := o.First().State
		states[0] = int32(cur)
		ok := true
		for t := start; t < end; t++ {
			cur = stepPrior(o, t, cur, rng)
			states[t-start+1] = int32(cur)
			if want, observed := o.ObservedAt(t + 1); observed && want != cur {
				ok = false
				break
			}
		}
		if ok {
			return PriorSampleResult{
				Path:     uncertain.Path{Start: start, States: states},
				Attempts: attempt,
			}, nil
		}
	}
	return PriorSampleResult{Attempts: maxAttempts},
		fmt.Errorf("inference: rejection sampling exhausted %d attempts for object %d", maxAttempts, o.ID)
}

// SegmentRejectionSample implements the improved rejection scheme (TS2,
// Section 7.1 "Sampling Efficiency"): sample each observation gap
// independently, restarting only the current segment when it misses its end
// observation. Attempts counts segment draws across all gaps, making the
// expected cost linear rather than exponential in the number of
// observations.
func SegmentRejectionSample(o *uncertain.Object, rng *rand.Rand, maxAttempts int) (PriorSampleResult, error) {
	start, end := o.First().T, o.Last().T
	states := make([]int32, end-start+1)
	states[0] = int32(o.First().State)
	attempts := 0
	for g := 0; g+1 < len(o.Obs); g++ {
		a, b := o.Obs[g], o.Obs[g+1]
		for {
			attempts++
			if attempts > maxAttempts {
				return PriorSampleResult{Attempts: maxAttempts},
					fmt.Errorf("inference: segment sampling exhausted %d attempts for object %d", maxAttempts, o.ID)
			}
			cur := a.State
			okSeg := true
			for t := a.T; t < b.T; t++ {
				cur = stepPrior(o, t, cur, rng)
				states[t-start+1] = int32(cur)
			}
			if cur != b.State {
				okSeg = false
			}
			if okSeg {
				break
			}
		}
	}
	return PriorSampleResult{
		Path:     uncertain.Path{Start: start, States: states},
		Attempts: attempts,
	}, nil
}

// ExpectedRejectionCost returns the analytically expected number of
// trajectory draws needed by TS1 (full-trajectory rejection) and TS2
// (segment-wise rejection) to produce one valid sample of o, computed by
// exact forward propagation of the a-priori chain. The per-gap hit
// probability p_g is P(o(t_{g+1}) = θ_{g+1} | o(t_g) = θ_g); then
//
//	E[TS1] = 1 / Π_g p_g    and    E[TS2] = Σ_g 1/p_g.
//
// A contradiction (some p_g = 0) yields +Inf for both.
func ExpectedRejectionCost(o *uncertain.Object) (ts1, ts2 float64) {
	ts1 = 1
	for g := 0; g+1 < len(o.Obs); g++ {
		a, b := o.Obs[g], o.Obs[g+1]
		v := sparse.UnitVec(a.State)
		for t := a.T; t < b.T; t++ {
			v = o.Chain.At(t).MulVecLeft(v)
		}
		p := v[b.State]
		if p <= 0 {
			return inf(), inf()
		}
		ts1 *= 1 / p
		ts2 += 1 / p
	}
	return ts1, ts2
}

func stepPrior(o *uncertain.Object, t, cur int, rng *rand.Rand) int {
	cols, vals := o.Chain.At(t).Row(cur)
	u := rng.Float64()
	acc := 0.0
	for k, v := range vals {
		acc += v
		if u <= acc {
			return int(cols[k])
		}
	}
	// Floating-point shortfall: take the last transition.
	return int(cols[len(cols)-1])
}

func inf() float64 { return math.Inf(1) }
