package pnn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/sub"
)

// View is one pinned view of the indexed data that a Front evaluates
// against: a single process's composite snapshot, or a cluster
// coordinator's scatter-gather over its peers. Each one-shot request,
// batch and standing-group evaluation pins one view.
type View interface {
	// RunGroup answers every item of one shared-world group and reports
	// the influence region plus the version the answer was gathered at
	// (also on error, when it is known).
	RunGroup(spec shard.GroupSpec, items []shard.GroupItem) ([]shard.GroupAnswer, query.Stats, shard.Influence, VersionInfo, error)
	// Version is the identity stamped on requests that fail without a
	// gathered version: invalid ones and panicking evaluations.
	Version() VersionInfo
}

// ErrPeerUnavailable marks an answer that could not be gathered from a
// consistent view: a peer did not answer, or a batch's groups still
// straddled concurrent writes after their one retry. The API layer
// maps it to 503 peer_unavailable.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// Front is the request layer shared by the local Processor and the
// cluster coordinator: one-shot runs, batches (solo and shared-world
// grouping, version reconciliation), standing queries and their
// grouped re-evaluation with adaptive floor reuse, each written once
// over the View its embedder pins. Every evaluation is panic-contained:
// a panicking group fails its own requests, never the process.
type Front struct {
	pin  func() View
	subs *sub.Registry
}

// NewFront returns a front over pin, which must return a fresh view per
// call, with a standing-query evaluation pool of sweepWorkers
// goroutines (idle until the first Subscribe).
func NewFront(pin func() View, sweepWorkers int) *Front {
	f := &Front{pin: pin}
	f.subs = sub.New(sub.Options{
		Workers:       sweepWorkers,
		GroupEval:     f.evalGroup,
		SweepInterval: DefaultSweepInterval,
	})
	return f
}

// Run answers one Request — any semantics, with the full knob set
// including the adaptive Confidence policy. It is the single-query form
// of RunBatchStats: the same validation, the same determinism contract
// (the answer depends only on the view and the request's own fields),
// with Response.Stats reporting the worlds actually drawn and the error
// bound they guarantee. Unlike the batch path, SamplerBuilds is
// reported on the response itself.
func (f *Front) Run(req Request) Response {
	out, bst := f.RunBatchStats([]Request{req}, BatchOptions{Workers: 1})
	out[0].Stats.SamplerBuilds = bst.SamplerBuilds
	return out[0]
}

// unit is one independently re-runnable slice of a batch: a single
// request, or one shared-world group of requests.
type unit struct {
	spec  shard.GroupSpec
	items []shard.GroupItem
	idx   []int // request indices, aligned with items
}

// run answers the unit's requests into out, returning the raw stats
// and the version vector the group gathered at — nil when it failed
// and gathered nothing.
func (u *unit) run(v View, out []Response) (query.Stats, []int64) {
	answers, raw, _, vi, err := runGroup(v, u.spec, u.items)
	for j, i := range u.idx {
		if err != nil {
			out[i] = Response{Version: vi, Err: err}
			continue
		}
		out[i] = respond(u.items[j].Op, answers[j], raw, u.spec, vi)
	}
	if err != nil {
		return raw, nil
	}
	return raw, vi.Vector
}

// runGroup runs one group on v, turning a panic into the group's error.
func runGroup(v View, spec shard.GroupSpec, items []shard.GroupItem) (answers []shard.GroupAnswer, raw query.Stats, inf shard.Influence, vi VersionInfo, err error) {
	defer func() {
		if r := recover(); r != nil {
			answers, raw, inf = nil, query.Stats{}, shard.Influence{}
			vi, err = v.Version(), fmt.Errorf("pnn: evaluation panicked: %v", r)
		}
	}()
	return v.RunGroup(spec, items)
}

// respond converts one group answer into the facade response at vi,
// reporting the adaptive floor the group ran with. SamplerBuilds is
// zeroed: build attribution to one request is scheduling-dependent, so
// batches report it only as the batch-level sum.
func respond(op shard.GroupOp, a shard.GroupAnswer, raw query.Stats, spec shard.GroupSpec, vi VersionInfo) Response {
	resp := ResponseFromAnswer(op, a, raw)
	if spec.Conf.Enabled() {
		resp.Stats.WorldFloor = spec.MinWorlds
	}
	resp.Version = vi
	return resp
}

// RunBatchStats answers a slice of independent queries against one
// pinned view, fanning them across a pool of opts.Workers goroutines
// (0 or less: GOMAXPROCS), and returns the batch-level work accounting
// alongside the responses. Responses align with requests by index;
// per-request failures land in Response.Err, never panic the batch.
// With opts.ShareWorlds, compatible requests coalesce into shared-world
// groups (see BatchOptions).
//
// All responses must come from one snapshot. A local view guarantees
// that by pinning; a remote one cannot, so units that gathered at a
// stale version vector are re-run once against the newest, and those
// still disagreeing fail with ErrPeerUnavailable — a batch never mixes
// snapshots silently.
func (f *Front) RunBatchStats(reqs []Request, opts BatchOptions) ([]Response, BatchStats) {
	out := make([]Response, len(reqs))
	bst := BatchStats{Requests: len(reqs)}
	if len(reqs) == 0 {
		return out, bst
	}
	v := f.pin()
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var units []*unit
	groups := make(map[string]*unit)
	for i, req := range reqs {
		spec, item, err := NormalizeRequest(req)
		if err != nil {
			out[i] = Response{Version: v.Version(), Err: err}
			continue
		}
		if !opts.ShareWorlds {
			units = append(units, &unit{spec: spec, items: []shard.GroupItem{item}, idx: []int{i}})
			continue
		}
		key, seed, _ := ShareGroup(opts.SharedSeed, req) // req is valid: cannot fail
		u := groups[key]
		if u == nil {
			spec.Seed = seed
			u = &unit{spec: spec}
			groups[key] = u
			units = append(units, u)
		}
		u.items = append(u.items, item)
		u.idx = append(u.idx, i)
	}
	if opts.ShareWorlds {
		bst.Groups = len(units)
	}
	var mu sync.Mutex
	vectors := make([][]int64, len(units))
	runUnits := func(which []int) {
		runPool(len(which), workers, func(j int) {
			u := which[j]
			var raw query.Stats
			raw, vectors[u] = units[u].run(v, out)
			mu.Lock()
			bst.SamplerBuilds += raw.SamplerBuilds
			bst.AdaptTime += raw.AdaptTime
			mu.Unlock()
		})
	}
	all := make([]int, len(units))
	for u := range all {
		all[u] = u
	}
	runUnits(all)
	if stale := staleUnits(vectors); len(stale) > 0 {
		runUnits(stale)
		for _, u := range staleUnits(vectors) {
			// Per-shard versions each start at 1; the composite is the
			// vector sum minus the startup offset.
			vi := VersionInfo{Vector: vectors[u], Max: 1 - int64(len(vectors[u]))}
			for _, x := range vectors[u] {
				vi.Max += x
			}
			for _, i := range units[u].idx {
				out[i] = Response{Version: vi,
					Err: fmt.Errorf("%w: batch gathered across concurrent writes twice", ErrPeerUnavailable)}
			}
		}
	}
	return out, bst
}

// staleUnits returns the units whose gather vector differs from the
// newest one seen (the vector with the highest sum). Failed units
// (nil vectors) gathered nothing and take no part.
func staleUnits(vectors [][]int64) []int {
	sum := func(v []int64) int64 {
		var s int64
		for _, x := range v {
			s += x
		}
		return s
	}
	var newest []int64
	for _, vec := range vectors {
		if vec != nil && (newest == nil || sum(vec) > sum(newest)) {
			newest = vec
		}
	}
	var stale []int
	for u, vec := range vectors {
		if vec != nil && !slices.Equal(vec, newest) {
			stale = append(stale, u)
		}
	}
	return stale
}

// runPool fans fn over the item indices [0, n) on a pool of `workers`
// goroutines (clamped to n; one runs inline). fn must be safe for
// concurrent calls on distinct indices.
func runPool(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Subscribe registers req as a standing query: it is evaluated once
// immediately (the first event on the returned subscription's channel,
// seq 1) and re-evaluated after every write whose object touches the
// query's influence region. Every event carries a full Response plus
// the snapshot version it answers for, and the determinism contract of
// one-shot queries extends to standing ones: a delivered event at
// version V is byte-identical to Run(req') against the version-V
// snapshot, where req' is req with MinWorlds raised to the event's
// Stats.WorldFloor (the floor differs from req.MinWorlds only when
// adaptive-budget reuse raised it; without a Confidence policy req' is
// simply req).
//
// Compatible standing queries share work: subscriptions whose world-
// sharing group key (query positions over the window, interval, k,
// confidence policy, floor and seed — plus tau and semantics under an
// adaptive policy, whose shared stop point depends on them) coincides
// are re-evaluated as ONE shared-world group per sweep, so
// re-evaluation cost scales with distinct query shapes touched, not
// subscription count. Grouping never changes answer bytes: members
// with equal keys draw identical worlds and identical (deterministic)
// stop points whether evaluated alone or together.
//
// Evaluations run asynchronously on the registry's worker pool — the
// ingest path never samples — and per-subscription event queues are
// bounded (see Delivery.QueueCap): slow consumers lose oldest events,
// tracked by SubEvent.Dropped, and never block writers. The consumer
// must drain Events() until the terminal Bye event (sent by
// Unsubscribe and CloseSubscriptions), after which the channel closes.
func (f *Front) Subscribe(req Request, d Delivery) (*Subscription, error) {
	if _, _, err := normalizeRequest(req); err != nil {
		return nil, err
	}
	// Every subscription is keyed, so the registry always evaluates it
	// through evalGroup and never needs a per-subscription closure.
	return f.subs.SubscribeKeyed(standingKey(req), nil, d, req), nil
}

// standingKey is the compatibility-group key of a valid standing
// request: the world-sharing groupKey plus the seed (standing queries
// draw from their own request seed, so equal shapes with different
// seeds draw different worlds and must not group). Under an enabled
// Confidence policy the shared early-stop point additionally depends on
// every member's (semantics, tau) — the group stops only when all
// members' estimates separate — so adaptive requests group only with
// identical (semantics, tau): then the duplicate bounds are no-ops and
// the grouped stop point equals each member's solo stop point exactly.
func standingKey(req Request) string {
	k, op, _ := normalizeRequest(req) // Subscribe validated req
	buf := []byte(groupKey(req.Query, req.Ts, req.Te, k, req.Confidence, req.MinWorlds))
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(req.Seed))
	if req.Confidence.Enabled() {
		put(uint64(op))
		put(math.Float64bits(req.Tau))
	}
	return string(buf)
}

// region is a standing query's stored influence region: the query
// positions over the window plus the per-timestep pruning thresholds
// of its last evaluation. An updated object whose rectangles stay
// strictly outside bound[t-ts] at every window time cannot be among
// the k nearest at any t — and because it then cannot displace the
// threshold-defining objects either, the stored thresholds remain
// valid until the next evaluation refreshes them.
type region struct {
	q      Query
	ts, te int
	bound  []float64
}

// groupState is a compatibility group's carry-over between
// re-evaluations: the adaptive stop point (worlds drawn) its previous
// evaluation proved sufficient. The next evaluation starts its
// early-stop floor there — a query whose difficulty did not change
// decides in one round instead of re-escalating from the first.
type groupState struct {
	worlds int
}

// evalGroup is the registry's GroupEval hook: it answers every member
// of one compatible standing group over ONE shared-world evaluation on
// a freshly pinned view — the same spec and path as the one-shot — so
// each member's bytes match a fresh one-shot at the same version, seed
// and floor. All members share the spec (their key pins query, window,
// k, seed, policy and floor; tau and semantics too under an adaptive
// policy), so member i differs only in its GroupItem. Raising the floor
// to the group's proven budget never changes which worlds are drawn,
// only how early the executor may stop.
func (f *Front) evalGroup(_ string, metas []any, state any) ([]sub.Eval, any) {
	v := f.pin()
	evals := make([]sub.Eval, len(metas))
	fail := func(vi VersionInfo, err error) ([]sub.Eval, any) {
		for i := range evals {
			resp := Response{Version: vi, Err: err}
			evals[i] = sub.Eval{Version: vi.Max, Payload: resp, Fingerprint: fingerprintResponse(resp)}
		}
		return evals, state
	}
	var spec shard.GroupSpec
	items := make([]shard.GroupItem, len(metas))
	for i, m := range metas {
		req, _ := m.(Request)
		s, item, err := NormalizeRequest(req)
		if err != nil {
			return fail(v.Version(), err)
		}
		if i == 0 {
			spec = s
		}
		items[i] = item
	}
	reused := false
	if st, ok := state.(*groupState); ok && spec.Conf.Enabled() && st.worlds > spec.MinWorlds {
		spec.MinWorlds = st.worlds
		reused = true
	}
	answers, raw, inf, vi, err := runGroup(v, spec, items)
	if err != nil {
		return fail(vi, err)
	}
	if spec.Conf.Enabled() && raw.Worlds > 0 {
		state = &groupState{worlds: raw.Worlds}
	}
	reg := &region{q: spec.Q, ts: spec.Ts, te: spec.Te, bound: inf.PruneDist}
	shared := make(map[shard.GroupItem]sub.Eval, len(items))
	for i, a := range answers {
		// Members with the same (op, tau) have the same answer: they
		// share one immutable Response (see SubEvent) instead of each
		// queueing a converted copy of its own.
		if ev, ok := shared[items[i]]; ok {
			evals[i] = ev
			continue
		}
		resp := respond(items[i].Op, a, raw, spec, vi)
		resp.Stats.SamplerBuilds = raw.SamplerBuilds
		resp.Stats.GroupSize = len(items)
		resp.Stats.BudgetReused = reused
		ev := sub.Eval{
			Version:      vi.Max,
			Payload:      resp,
			Fingerprint:  fingerprintResponse(resp),
			BudgetReused: reused,
		}
		if a.Err == nil {
			ev.Influencers = inf.IDs
			ev.Region = reg
		}
		evals[i] = ev
		shared[items[i]] = ev
	}
	return evals, state
}

// NotifyWrite classifies one published write to object id for the
// standing queries. touch reports whether the written object may
// intersect a stored influence region (query q over [ts, te] with
// per-timestep thresholds bound); it must resolve the object against
// the state that write produced, never a later one, and answer true
// when it cannot tell — a spurious re-evaluation, never a missed one.
func (f *Front) NotifyWrite(id int, touch func(q Query, ts, te int, bound []float64) bool) {
	f.subs.NotifyWrite(id, func(r any) bool {
		reg, ok := r.(*region)
		return !ok || touch(reg.q, reg.ts, reg.te, reg.bound)
	})
}

// fingerprintResponse condenses a Response's answer — results,
// intervals, error text — for Delivery.OnChangeOnly comparison.
// Sampling statistics are deliberately excluded: an answer is
// "unchanged" when the reported objects and probabilities are, even if
// an adaptive policy reached its verdict a round earlier.
func fingerprintResponse(resp Response) uint64 {
	h := fnv.New64a()
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		h.Write(tmp[:])
	}
	put(uint64(len(resp.Results)))
	for _, r := range resp.Results {
		put(uint64(r.ObjectID))
		put(math.Float64bits(r.Prob))
	}
	put(uint64(len(resp.Intervals)))
	for _, iv := range resp.Intervals {
		put(uint64(iv.ObjectID))
		put(uint64(len(iv.Times)))
		for _, t := range iv.Times {
			put(uint64(t))
		}
		put(math.Float64bits(iv.Prob))
	}
	if resp.Err != nil {
		h.Write([]byte(resp.Err.Error()))
	}
	return h.Sum64()
}

// Unsubscribe removes a standing query; its consumer receives a
// terminal Bye event and the channel closes. It reports whether the ID
// was registered.
func (f *Front) Unsubscribe(id int64) bool { return f.subs.Unsubscribe(id) }

// Subscription returns the standing query with the given ID, if
// registered.
func (f *Front) Subscription(id int64) (*Subscription, bool) { return f.subs.Get(id) }

// Subscriptions describes every registered standing query, ascending
// by ID.
func (f *Front) Subscriptions() []SubscriptionInfo { return f.subs.List() }

// NumSubscriptions returns the number of registered standing queries.
func (f *Front) NumSubscriptions() int { return f.subs.Len() }

// SubscriptionStats returns the registry's cumulative counters.
func (f *Front) SubscriptionStats() SubscriptionStats { return f.subs.Stats() }

// WaitSubscriptionsIdle blocks until every pending re-evaluation has
// drained (or the timeout elapses), reporting whether quiescence was
// reached. After a successful wait, every subscription has evaluated
// the newest snapshot its latest relevant write published.
func (f *Front) WaitSubscriptionsIdle(timeout time.Duration) bool {
	return f.subs.WaitIdle(timeout)
}

// CloseSubscriptions shuts the subscription subsystem down: every
// standing query receives a terminal Bye event and its channel closes.
// One-shot queries keep being answered; new Subscribe calls return
// dead subscriptions. Safe to call more than once.
func (f *Front) CloseSubscriptions() { f.subs.Close() }

// SetSweepInterval tunes the bounded delay of the subscription sweep
// scheduler (default DefaultSweepInterval): longer intervals coalesce
// more writes per grouped re-evaluation sweep at the cost of event
// latency; 0 sweeps on every write.
func (f *Front) SetSweepInterval(d time.Duration) { f.subs.SetSweepInterval(d) }

// SetSubscriptionGrouping toggles grouped re-evaluation of compatible
// standing queries (default on). Off, every sweep re-evaluates touched
// subscriptions one by one — the baseline the fanout benchmark
// measures grouping against. Answer bytes are identical either way.
func (f *Front) SetSubscriptionGrouping(enabled bool) { f.subs.SetGrouping(enabled) }
