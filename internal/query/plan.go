package query

import (
	"fmt"
	"sync"

	"pnn/internal/inference"
	"pnn/internal/mcrand"
	"pnn/internal/nn"
	"pnn/internal/space"
)

// This file is the single Monte-Carlo sampling loop of the system. Every
// query semantics — P∀NNQ, P∃NNQ, their kNN variants, PCNNQ — and every
// deployment shape (single engine, sharded scatter-gather, coalesced
// batches) evaluates the same set of sampled possible worlds; what
// differs is only which per-chunk consumers (Evaluators) are attached to
// the Plan and how the worlds are drawn. The paper's sampling approach
// (Section 6) makes no distinction between the semantics beyond the
// per-world predicate, so neither does the executor.
//
// Two draw policies exist, both living entirely in this file:
//
//   - budget-split: the sample budget is divided statically across
//     Workers; worker w draws every influencer's trajectories from the
//     sub-stream mcrand.SubSeed(BaseSeed, w). Used by the single-engine
//     query path. Answers depend only on (BaseSeed, Workers), never on
//     scheduling.
//   - per-row: every object row carries its own generator, seeded by
//     mcrand.SubSeed(request seed, object ID) by the sharded executor.
//     Because a row's draws depend on nothing but its own generator, the
//     sampled worlds are byte-identical for any shard count and any
//     FillGroups partition — the S ∈ {1,2,4} equivalence contract.

// worldChunk is the chunking policy of the executor; see nn.WorldChunk.
const worldChunk = nn.WorldChunk

// boundEvery is the decision cadence of confidence-adaptive plans: the
// executor polls every evaluator's Bound after each run of boundEvery
// 256-world chunks, in sequential round order. Decisions happen only at
// these deterministic multiples of boundEvery*worldChunk worlds — never
// "whenever a worker finishes" — so the stop point depends only on
// (snapshot, seed, confidence), not on scheduling.
const boundEvery = 4

// batchPool recycles the columnar world batches of the executor across
// queries and workers; a warmed pool makes steady-state sampling
// allocation-free.
var batchPool = sync.Pool{New: func() any { return new(nn.WorldBatch) }}

// walkPool recycles the time-major kernel's scratch (pre-drawn uniforms
// and per-world row spans) across fill goroutines.
var walkPool = sync.Pool{New: func() any { return new(inference.WalkScratch) }}

// Evaluator is a per-chunk consumer of sampled possible worlds: the
// predicate side of one query semantics, decoupled from the sampling
// loop. Any number of evaluators may be attached to one Plan; each
// world is handed to every evaluator exactly once, which is what lets a
// coalesced batch of queries share a single world set.
type Evaluator interface {
	// Bind is called once before sampling with the worker fan-out the
	// executor will use; evaluators allocate per-worker accumulators
	// here so World never needs synchronization.
	Bind(workers int)
	// World is called exactly once per sampled world: worker identifies
	// the calling goroutine (disjoint ids in [0, workers)), w is the
	// global world number in [0, Samples), and wi is the world's row in
	// b. Implementations must write only per-worker or per-world state.
	World(worker, w int, b *nn.WorldBatch, wi int)
	// Bound reports whether worldsSeen sampled worlds decide this
	// evaluator's answer under its confidence policy — every estimate
	// separated from its threshold τ by more than the Hoeffding error
	// ε(worldsSeen), or ε itself within the requested accuracy. The
	// executor calls it only at deterministic chunk-round boundaries,
	// between rounds (never concurrently with World), and stops the plan
	// early once every attached evaluator is decided. Evaluators without
	// a policy return false, leaving the stop to the sample budget.
	Bound(worldsSeen int) (decided bool)
}

// CountEvaluator counts, per target row, the worlds in which the row's
// k-NN predicate holds: throughout the window (∀, Definition 2) or at
// some timestep (∃, Definition 1). It is the evaluator behind
// ForAllNN/ExistsNN and their kNN variants.
type CountEvaluator struct {
	k       int
	forall  bool
	targets []int // sampler-row indices to count
	partial [][]int
	fold    []nn.KthScratch // per-worker k-th distance scratch

	conf    Confidence
	taus    []float64 // thresholds the estimates must separate from
	scratch []int     // merged counts, reused across Bound polls
}

// NewCountEvaluator returns a count evaluator over the given sampler
// rows; forall selects the ∀ predicate, otherwise ∃.
func NewCountEvaluator(k int, forall bool, targets []int) *CountEvaluator {
	return &CountEvaluator{k: k, forall: forall, targets: targets}
}

// Bind implements Evaluator.
func (c *CountEvaluator) Bind(workers int) {
	c.partial = make([][]int, workers)
	for i := range c.partial {
		c.partial[i] = make([]int, len(c.targets))
	}
	c.fold = make([]nn.KthScratch, workers)
}

// World implements Evaluator. Each timestep's k-th distance is computed
// once per world; every target then tests its own distance against it.
func (c *CountEvaluator) World(worker, _ int, b *nn.WorldBatch, wi int) {
	if len(c.targets) == 0 {
		return
	}
	kth := b.KthDists(wi, c.k, &c.fold[worker])
	counts := c.partial[worker]
	for ci, li := range c.targets {
		if c.holds(b, wi, li, kth) {
			counts[ci]++
		}
	}
}

// holds evaluates the predicate of row li in world wi against the
// world's k-th distances: ∀ fails at the first timestep where the row
// is not among the k nearest, ∃ succeeds at the first where it is.
func (c *CountEvaluator) holds(b *nn.WorldBatch, wi, li int, kth []float64) bool {
	for ti, d := range kth {
		if nn.InKNN(b.Dist(wi, li, b.Ts+ti), d) != c.forall {
			return !c.forall
		}
	}
	return c.forall
}

// Counts merges the per-worker accumulators: Counts()[i] is the number
// of worlds in which target row targets[i] satisfied the predicate.
func (c *CountEvaluator) Counts() []int {
	out := make([]int, len(c.targets))
	for _, p := range c.partial {
		for i, v := range p {
			out[i] += v
		}
	}
	return out
}

// SetBound arms the evaluator's early-stop rule: under conf, Bound
// decides once every target's estimate separates from every tau by more
// than the Hoeffding error ε(n), or once ε(n) reaches conf.Eps. The
// rule additionally requires every tau > ε(n) — the "virtual zero row"
// condition. A row another layout's pruning would have dropped always
// counts zero worlds, and |0 − τ| > ε(n) is exactly τ > ε(n); baking
// that clause in unconditionally makes the decision identical whether
// or not such rows are present, so the stop point cannot depend on the
// shard layout or pruning superset that produced the target set.
func (c *CountEvaluator) SetBound(conf Confidence, taus ...float64) {
	c.conf = conf
	c.taus = taus
}

// Bound implements Evaluator; see SetBound for the decision rule.
func (c *CountEvaluator) Bound(worldsSeen int) bool {
	if !c.conf.Enabled() || worldsSeen <= 0 {
		return false
	}
	eps := ErrorBound(worldsSeen, c.conf.EffDelta())
	if eps <= c.conf.Eps {
		return true
	}
	if len(c.taus) == 0 {
		return false
	}
	for _, tau := range c.taus {
		if tau <= eps { // the virtual zero row has not separated
			return false
		}
	}
	if c.scratch == nil {
		c.scratch = make([]int, len(c.targets))
	}
	for i := range c.scratch {
		c.scratch[i] = 0
	}
	for _, p := range c.partial {
		for i, v := range p {
			c.scratch[i] += v
		}
	}
	inv := 1 / float64(worldsSeen)
	for _, cnt := range c.scratch {
		est := float64(cnt) * inv
		for _, tau := range c.taus {
			d := est - tau
			if d < 0 {
				d = -d
			}
			if d <= eps {
				return false
			}
		}
	}
	return true
}

// MaskEvaluator accumulates, for every world, the per-row per-timestep
// k-NN indicator rows the PCNN lattice walk (Algorithm 1) mines. Unlike
// counting, the lattice walk needs every world's masks in memory at
// once, so the evaluator materializes samples × rows × nT booleans in
// one flat backing array; each row is written by exactly one worker
// (per-world), keeping the parallel gather race-free and deterministic.
type MaskEvaluator struct {
	k, rows, nT int
	masks       [][]bool
	fold        []nn.KthScratch // per-worker k-th distance scratch
	conf        Confidence
}

// NewMaskEvaluator returns a mask evaluator over `rows` sampler rows, a
// window of nT timesteps and `samples` worlds.
func NewMaskEvaluator(k, rows, nT, samples int) *MaskEvaluator {
	backing := make([]bool, samples*rows*nT)
	masks := make([][]bool, samples)
	for w := range masks {
		masks[w] = backing[w*rows*nT : (w+1)*rows*nT]
	}
	return &MaskEvaluator{k: k, rows: rows, nT: nT, masks: masks}
}

// Bind implements Evaluator.
func (m *MaskEvaluator) Bind(workers int) {
	m.fold = make([]nn.KthScratch, workers)
}

// World implements Evaluator.
func (m *MaskEvaluator) World(worker, w int, b *nn.WorldBatch, wi int) {
	kth := b.KthDists(wi, m.k, &m.fold[worker])
	row := m.masks[w]
	for li := 0; li < m.rows; li++ {
		mask := row[li*m.nT : (li+1)*m.nT]
		for ti, d := range kth {
			mask[ti] = nn.InKNN(b.Dist(wi, li, b.Ts+ti), d)
		}
	}
}

// Masks returns the accumulated indicator rows in the layout
// MineTimeSets consumes: Masks()[w][li*nT+j] reports whether row li was
// among the k nearest at window offset j in world w. Under an adaptive
// plan only the first ExecStats.Worlds rows were written; slice to that
// count before mining so frequencies normalize by worlds drawn.
func (m *MaskEvaluator) Masks() [][]bool { return m.masks }

// SetBound arms the evaluator's early-stop rule. PCNN mines interval
// probabilities rather than testing them against a threshold, so the
// mask evaluator's decision is accuracy-only: it is decided once the
// Hoeffding error of every mined frequency is within conf.Eps. The rule
// reads no sampled state, so it is trivially identical across shard
// layouts.
func (m *MaskEvaluator) SetBound(conf Confidence) { m.conf = conf }

// Bound implements Evaluator; see SetBound for the decision rule.
func (m *MaskEvaluator) Bound(worldsSeen int) bool {
	return m.conf.Enabled() && worldsSeen > 0 &&
		ErrorBound(worldsSeen, m.conf.EffDelta()) <= m.conf.Eps
}

// Plan is one executable Monte-Carlo sampling pass: the influencer rows
// to sample, the query and window to evaluate against, a draw policy,
// and any number of attached evaluators. Build one, attach evaluators,
// and hand it to Engine.Execute; the executor draws every world chunk
// once through the columnar kernel and feeds all evaluators.
type Plan struct {
	// Query and window. Query must be non-zero and Te >= Ts.
	Query  Query
	Ts, Te int

	// Samplers holds the adapted sampler of every influencer row; row
	// indices in evaluators refer to positions in this slice.
	Samplers []*inference.Sampler

	// Samples is the number of worlds to draw; 0 means the executing
	// engine's budget. Workers bounds the sampling/evaluation fan-out;
	// 0 means the executing engine's parallelism.
	Samples int
	Workers int

	// Confidence, when enabled, makes the pass adaptive: the executor
	// polls every attached evaluator's Bound at deterministic chunk-round
	// boundaries and stops as soon as all are decided, escalating up to
	// Confidence.Budget(Samples) worlds while any is not. The zero value
	// draws exactly Samples worlds, as before.
	Confidence Confidence

	// MinWorlds floors an adaptive pass: Bound polls are skipped while
	// fewer than MinWorlds worlds have been seen, so the executor cannot
	// stop below the floor (it still stops at the cap). Because decisions
	// only happen at the fixed chunk-round boundaries, the effective floor
	// is the smallest boundary >= MinWorlds and the stop point stays a
	// pure function of (snapshot, seed, policy, MinWorlds) — the floor
	// therefore joins the determinism contract surface. Standing queries
	// use it to restart a re-evaluation at the budget their previous run
	// already proved sufficient instead of re-escalating from the first
	// round. Ignored when Confidence is disabled; values above the budget
	// cap simply disable early stopping.
	MinWorlds int

	// Space is the geometry distances are computed in; nil means the
	// executing engine's space.
	Space *space.Space

	// BaseSeed selects the budget-split draw policy (single-engine
	// path): worker w draws from mcrand.SubSeed(BaseSeed, w). Ignored
	// when RowRngs is set.
	BaseSeed int64

	// RowRngs selects the per-row draw policy (scatter-gather path):
	// RowRngs[i] is row i's private generator, advanced in world order
	// across the whole run. len(RowRngs) must equal len(Samplers).
	RowRngs []mcrand.RNG

	// Replay selects the replay draw policy (the cross-process gather
	// path): instead of sampling, row i's state column for world w is
	// copied from Replay[i][w*nT:(w+1)*nT] (nT = Te-Ts+1, -1 marking
	// dead timesteps). Every Replay[i] must hold at least
	// Confidence.Budget(Samples) worlds. Because a row's pre-drawn
	// columns are exactly what its private generator would have produced
	// in world order, a replayed plan evaluates the same worlds — and
	// under a confidence policy reaches the same deterministic stop
	// point — as the per-row plan that drew them. Samplers and RowRngs
	// must be nil when Replay is set.
	Replay [][]int32

	// FillGroups optionally partitions rows for the parallel fill phase
	// of the per-row policy (the sharded executor groups rows by owning
	// shard). Each group is filled sequentially by one goroutine; the
	// drawn worlds are identical for any partition because rows draw
	// from private generators. nil means one group holding all rows.
	FillGroups [][]int

	evals []Evaluator
}

// Attach adds an evaluator to the plan. Every sampled world is handed
// to every attached evaluator exactly once.
func (p *Plan) Attach(ev Evaluator) { p.evals = append(p.evals, ev) }

// NewPlan returns a budget-split plan over this engine's index: the
// engine's sample budget and parallelism, worlds drawn from sub-streams
// of seed. It is how the engine's own query methods construct their
// sampling pass.
func (e *Engine) NewPlan(q Query, ts, te int, samplers []*inference.Sampler, seed int64) *Plan {
	return &Plan{Query: q, Ts: ts, Te: te, Samplers: samplers, BaseSeed: seed}
}

// ExecStats reports what one executed plan actually paid and
// guarantees: the number of worlds drawn, the Hoeffding error bound
// those worlds buy at the plan's confidence level (DefaultDelta when no
// policy was set), and whether an adaptive plan stopped before its
// escalation cap.
type ExecStats struct {
	// Worlds is the number of possible worlds drawn and evaluated; 0
	// when the plan had nothing to sample (no influencer rows or no
	// evaluators), in which case the answer is exact.
	Worlds int
	// ErrorBound is ε such that every per-object estimate is within ε
	// of the true probability with probability 1−delta; 0 for an exact
	// (sampling-free) answer.
	ErrorBound float64
	// EarlyStopped reports that a confidence policy decided the answer
	// before the escalation cap was exhausted.
	EarlyStopped bool
}

// Execute runs the plan: it draws each world chunk once through the
// columnar kernel and feeds every attached evaluator. Engine defaults
// fill unset plan fields (Space, Samples, Workers). Execute is the only
// sampling loop in the system; it returns once every world has been
// evaluated — every budgeted world, or, for a plan with an enabled
// Confidence, every world up to the first deterministic chunk-round
// boundary at which all attached evaluators report their answer
// decided.
func (e *Engine) Execute(p *Plan) (ExecStats, error) {
	if p.Space == nil {
		p.Space = e.tree.Space()
	}
	if p.Samples <= 0 {
		p.Samples = e.samples
	}
	if p.Workers <= 0 {
		p.Workers = e.Parallelism()
	}
	return execute(p)
}

// ExecutePlan runs a fully specified plan without an engine: Space,
// Samples and Workers must all be set by the caller. It is the entry
// point of deployments that evaluate worlds away from any index — the
// cluster coordinator replays peer-drawn state columns (Plan.Replay)
// through it, so gathered answers run the very same executor, chunking
// and early-stop cadence as local queries.
func ExecutePlan(p *Plan) (ExecStats, error) { return execute(p) }

// rows returns the number of influencer rows of the plan under either
// draw policy.
func (p *Plan) rows() int {
	if p.Replay != nil {
		return len(p.Replay)
	}
	return len(p.Samplers)
}

func execute(p *Plan) (ExecStats, error) {
	if p.Query.Zero() {
		return ExecStats{}, errZeroQuery
	}
	if p.Te < p.Ts {
		return ExecStats{}, fmt.Errorf("query: inverted interval [%d, %d]", p.Ts, p.Te)
	}
	if p.Space == nil {
		return ExecStats{}, fmt.Errorf("query: plan has no space")
	}
	if p.Samples < 1 {
		return ExecStats{}, fmt.Errorf("query: plan needs samples >= 1, got %d", p.Samples)
	}
	if p.RowRngs != nil && len(p.RowRngs) != len(p.Samplers) {
		return ExecStats{}, fmt.Errorf("query: plan has %d row generators for %d rows", len(p.RowRngs), len(p.Samplers))
	}
	if p.Replay != nil {
		if p.Samplers != nil || p.RowRngs != nil {
			return ExecStats{}, fmt.Errorf("query: plan mixes replay columns with samplers")
		}
		nT := p.Te - p.Ts + 1
		need := p.Confidence.Budget(p.Samples) * nT
		for i, col := range p.Replay {
			if len(col) < need {
				return ExecStats{}, fmt.Errorf("query: replay row %d holds %d worlds, plan needs %d",
					i, len(col)/nT, need/nT)
			}
		}
	}
	if err := p.Confidence.Validate(); err != nil {
		return ExecStats{}, err
	}
	if p.MinWorlds < 0 {
		return ExecStats{}, fmt.Errorf("query: plan needs min worlds >= 0, got %d", p.MinWorlds)
	}
	if p.Workers < 1 {
		p.Workers = 1
	}
	if p.rows() == 0 || len(p.evals) == 0 {
		for _, ev := range p.evals {
			ev.Bind(1)
		}
		// Nothing was sampled: the (empty or evaluator-less) answer is
		// exact, so the stats advertise zero worlds and zero error.
		return ExecStats{}, nil
	}
	adaptive := p.Confidence.Enabled()
	maxN := p.Confidence.Budget(p.Samples)
	var drawn int
	switch {
	case p.RowRngs != nil || p.Replay != nil:
		drawn = executePerRow(p, maxN, adaptive)
	case adaptive:
		drawn = executeBudgetSplitAdaptive(p, maxN)
	default:
		executeBudgetSplit(p)
		drawn = p.Samples
	}
	return ExecStats{
		Worlds:       drawn,
		ErrorBound:   ErrorBound(drawn, p.Confidence.EffDelta()),
		EarlyStopped: adaptive && drawn < maxN,
	}, nil
}

// allDecided polls every evaluator's Bound; a plan stops early only
// when all of them have decided.
func allDecided(evals []Evaluator, worldsSeen int) bool {
	for _, ev := range evals {
		if !ev.Bound(worldsSeen) {
			return false
		}
	}
	return true
}

// executeBudgetSplit divides the sample budget statically across
// min(Workers, Samples) workers; worker w draws all rows' trajectories
// world by world from the sub-stream mcrand.SubSeed(BaseSeed, w), so
// answers depend only on (BaseSeed, Workers) and never on scheduling.
// Worker w's worlds occupy the contiguous global index range after
// worker w-1's.
func executeBudgetSplit(p *Plan) {
	workers := p.Workers
	if workers > p.Samples {
		workers = p.Samples
	}
	for _, ev := range p.evals {
		ev.Bind(workers)
	}
	if workers <= 1 {
		rng := mcrand.New(mcrand.SubSeed(p.BaseSeed, 0))
		budgetChunk(p, 0, 0, p.Samples, &rng)
		return
	}
	per := p.Samples / workers
	extra := p.Samples % workers
	var wg sync.WaitGroup
	start := 0
	for w := 0; w < workers; w++ {
		worlds := per
		if w < extra {
			worlds++
		}
		wg.Add(1)
		go func(w, start, worlds int) {
			defer wg.Done()
			rng := mcrand.New(mcrand.SubSeed(p.BaseSeed, w))
			budgetChunk(p, w, start, worlds, &rng)
		}(w, start, worlds)
		start += worlds
	}
	wg.Wait()
}

// executeBudgetSplitAdaptive is the confidence-adaptive variant of the
// budget-split policy. Sampling proceeds in sequential rounds of up to
// boundEvery*worldChunk worlds; each round is split contiguously across
// the workers, with worker w drawing from a persistent generator on the
// sub-stream mcrand.SubSeed(BaseSeed, w), and all evaluators' bounds
// are polled once between rounds. Round sizes and decision points are
// fixed by (maxN, Workers) alone, so for a given (BaseSeed, Workers,
// Confidence) the drawn worlds and the stop point are identical no
// matter how goroutines are scheduled. Returns the worlds drawn.
func executeBudgetSplitAdaptive(p *Plan, maxN int) int {
	const roundWorlds = boundEvery * worldChunk
	workers := p.Workers
	if workers > roundWorlds {
		workers = roundWorlds
	}
	for _, ev := range p.evals {
		ev.Bind(workers)
	}
	rngs := make([]mcrand.RNG, workers)
	for w := range rngs {
		rngs[w] = mcrand.New(mcrand.SubSeed(p.BaseSeed, w))
	}
	seen := 0
	for seen < maxN {
		round := roundWorlds
		if left := maxN - seen; left < round {
			round = left
		}
		nw := workers
		if nw > round {
			nw = round
		}
		if nw <= 1 {
			budgetChunk(p, 0, seen, round, &rngs[0])
		} else {
			per := round / nw
			extra := round % nw
			var wg sync.WaitGroup
			start := seen
			for w := 0; w < nw; w++ {
				n := per
				if w < extra {
					n++
				}
				wg.Add(1)
				go func(w, start, n int) {
					defer wg.Done()
					budgetChunk(p, w, start, n, &rngs[w])
				}(w, start, n)
				start += n
			}
			wg.Wait()
		}
		seen += round
		if seen >= p.MinWorlds && allDecided(p.evals, seen) {
			break
		}
	}
	return seen
}

// budgetChunk draws `worlds` possible worlds in columnar chunks from
// rng (rows filled in row-major order within each chunk, each row's
// worlds in world order — the draw order the determinism contract
// fixes) and feeds them to every evaluator under the given worker id,
// with global world indices starting at `start`.
func budgetChunk(p *Plan, worker, start, worlds int, rng *mcrand.RNG) {
	b := batchPool.Get().(*nn.WorldBatch)
	defer batchPool.Put(b)
	sc := walkPool.Get().(*inference.WalkScratch)
	defer walkPool.Put(sc)
	for w0 := 0; w0 < worlds; w0 += worldChunk {
		cn := worldChunk
		if left := worlds - w0; left < cn {
			cn = left
		}
		b.Reset(len(p.Samplers), cn, p.Ts, p.Te)
		for li, s := range p.Samplers {
			s.SampleWindowsInto(rng, p.Ts, p.Te, cn, b.Columns(li), sc)
		}
		b.ComputeDistances(p.Space, p.Query.At)
		for w := 0; w < cn; w++ {
			for _, ev := range p.evals {
				ev.World(worker, start+w0+w, b, w)
			}
		}
	}
}

// executePerRow samples every world through one shared batch per chunk,
// up to maxN worlds. The fill half of every chunk runs one goroutine
// per fill group, each drawing its rows' state columns from their
// private generators in world order; the gather half materializes
// distance rows and evaluates the chunk's worlds on Workers goroutines
// (each worker computes the distances of its own world range, then
// evaluates it). When adaptive, the sequential chunk loop polls every
// evaluator's bound after each boundEvery-th chunk; the decision points
// are fixed multiples of boundEvery*worldChunk worlds and the counts at
// them depend only on the rows' private generators, so the stop point
// is identical for any worker count, shard count, or FillGroups
// partition. Returns the worlds drawn.
func executePerRow(p *Plan, maxN int, adaptive bool) int {
	nRows := p.rows()
	nT := p.Te - p.Ts + 1
	groups := p.FillGroups
	if groups == nil {
		all := make([]int, nRows)
		for i := range all {
			all[i] = i
		}
		groups = [][]int{all}
	}
	for _, ev := range p.evals {
		ev.Bind(p.Workers)
	}
	b := batchPool.Get().(*nn.WorldBatch)
	defer batchPool.Put(b)
	chunks := 0
	for w0 := 0; w0 < maxN; w0 += worldChunk {
		cn := worldChunk
		if left := maxN - w0; left < cn {
			cn = left
		}
		b.Reset(nRows, cn, p.Ts, p.Te)
		b.PrepareQuery(p.Query.At)
		var wg sync.WaitGroup
		for _, rows := range groups {
			if len(rows) == 0 {
				continue
			}
			wg.Add(1)
			go func(rows []int) {
				defer wg.Done()
				sc := walkPool.Get().(*inference.WalkScratch)
				defer walkPool.Put(sc)
				for _, li := range rows {
					if p.Replay != nil {
						// Replayed rows copy the pre-drawn columns at the
						// same global world indices the per-row policy
						// would have filled them at.
						col := p.Replay[li]
						for w := 0; w < cn; w++ {
							copy(b.States(li, w), col[(w0+w)*nT:(w0+w+1)*nT])
						}
						continue
					}
					p.Samplers[li].SampleWindowsInto(&p.RowRngs[li], p.Ts, p.Te, cn, b.Columns(li), sc)
				}
			}(rows)
		}
		wg.Wait()

		nw := p.Workers
		if nw > cn {
			nw = cn
		}
		if nw <= 1 {
			b.ComputeDistancesRange(p.Space, 0, cn)
			for w := 0; w < cn; w++ {
				for _, ev := range p.evals {
					ev.World(0, w0+w, b, w)
				}
			}
		} else {
			var eg sync.WaitGroup
			per := cn / nw
			extra := cn % nw
			lo := 0
			for worker := 0; worker < nw; worker++ {
				n := per
				if worker < extra {
					n++
				}
				eg.Add(1)
				go func(worker, lo, hi int) {
					defer eg.Done()
					b.ComputeDistancesRange(p.Space, lo, hi)
					for w := lo; w < hi; w++ {
						for _, ev := range p.evals {
							ev.World(worker, w0+w, b, w)
						}
					}
				}(worker, lo, lo+n)
				lo += n
			}
			eg.Wait()
		}
		if chunks++; adaptive && chunks%boundEvery == 0 {
			if seen := w0 + cn; seen >= p.MinWorlds && allDecided(p.evals, seen) {
				return seen
			}
		}
	}
	return maxN
}
