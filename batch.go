package pnn

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pnn/internal/shard"
)

// Semantics selects the predicate of a batch Request.
type Semantics string

const (
	// ForAll is P∀NNQ: the object is the (k-)NN at every time in [Ts, Te].
	ForAll Semantics = "forall"
	// Exists is P∃NNQ: the object is the (k-)NN at some time in [Ts, Te].
	Exists Semantics = "exists"
	// Continuous is PCNNQ: maximal timestamp sets on which the object
	// stays the likely (k-)NN.
	Continuous Semantics = "cnn"
)

// Request is one independent query of a batch.
type Request struct {
	Semantics Semantics
	Query     Query
	Ts, Te    int
	K         int // k for kNN semantics; 0 means 1
	Tau       float64
	// Seed is the per-request RNG seed; with world sharing disabled,
	// results depend only on it, never on scheduling. With sharing
	// enabled the group seed takes over (see BatchOptions.SharedSeed)
	// and Seed is ignored.
	Seed int64
	// Confidence, when enabled, replaces the processor's fixed sample
	// budget with an adaptive one: sampling stops as soon as every
	// estimate separates from Tau by more than the Hoeffding error (or
	// the error itself reaches Confidence.Eps), escalating up to
	// Confidence.MaxSamples worlds. Under world sharing the policy joins
	// the group key — only requests with identical policies coalesce —
	// and the group stops only when every member is decided, so a member
	// may see more worlds than it would alone, never fewer. The zero
	// value keeps the fixed budget.
	Confidence Confidence
	// MinWorlds floors an adaptive query's early stop: it cannot decide
	// before this many worlds (rounded up to the executor's fixed
	// decision cadence). The floor is part of the determinism contract —
	// the answer is a pure function of (snapshot, seed, policy, floor) —
	// and joins the world-sharing group key. Standing queries set it
	// automatically to reuse their group's previously proven budget;
	// Response.Stats.WorldFloor reports the floor in effect. Ignored
	// when Confidence is disabled.
	MinWorlds int
}

// Response is the answer to one batch Request, in the same position.
// Results is set for ForAll/Exists, Intervals for Continuous.
//
// Stats.SamplerBuilds and adaptation time are reported at batch level
// (BatchStats), not per response: on a cold cache the single-flight
// sampler cache attributes each shared build to whichever request
// happened to win it, which depends on scheduling. The batch-level sum
// is scheduling-independent; the per-response field is always 0 here.
type Response struct {
	Results   []Result
	Intervals []IntervalResult
	Stats     Stats
	// Version identifies the snapshot the response answered from — the
	// per-shard version vector plus the composite maximum (see
	// VersionInfo). Every response path sets it, including failed ones:
	// an error is still an answer about a particular snapshot.
	Version VersionInfo
	Err     error
}

// BatchStats is the scheduling-independent work accounting of one
// RunBatch call. Unlike the per-response Stats of historical releases,
// every field is deterministic for a given processor state and batch:
// SamplerBuilds is the number of models the whole batch adapted (each
// shared build counted exactly once, no matter which request won it).
type BatchStats struct {
	// Requests is the number of requests answered (== len(reqs)).
	Requests int
	// SamplerBuilds is the number of model adaptations the batch
	// performed; 0 once the cache is warm for every influencer touched.
	SamplerBuilds int
	// AdaptTime is the summed model-adaptation wall time across the
	// batch's queries (the TS phase of the paper's experiments).
	AdaptTime time.Duration
	// Groups is the number of shared-world groups executed; 0 when
	// sharing was disabled. Requests-Groups sampling passes were saved
	// by coalescing.
	Groups int
}

// BatchOptions tunes RunBatchStats.
type BatchOptions struct {
	// Workers is the worker-pool size; 0 or less picks GOMAXPROCS.
	Workers int
	// ShareWorlds coalesces compatible requests — same query reference
	// over the window, same [Ts, Te], same k — into one plan that
	// prunes once, adapts samplers once and samples each possible world
	// once, evaluating every member's predicate per chunk. Responses
	// are then estimated from shared worlds: probabilities agree with
	// independent evaluation within Monte-Carlo tolerance but are not
	// bit-identical to it, and the members of a group are correlated
	// (they saw the same worlds).
	ShareWorlds bool
	// SharedSeed is the batch-level seed of the sharing contract: a
	// group's worlds are drawn from mcrand.SubSeed(SharedSeed,
	// hash(group key)), where the group key is (Ts, Te, k, the query's
	// positions over the window). A response under sharing therefore
	// depends only on (snapshot, SharedSeed, its request's own
	// parameters) — never on which other requests were batched with it,
	// their order, or the worker count. Per-request Seeds are ignored.
	SharedSeed int64
}

// RunBatch answers a slice of independent queries, fanning them across a
// pool of `workers` goroutines (0 or less: GOMAXPROCS). All queries share
// the processor's sampler cache, so an object's model is adapted at most
// once for the whole batch. Each request draws its worlds from its own
// Seed, which makes every Response deterministic — independent of the
// worker count and of scheduling order. The whole batch runs against the
// single engine snapshot current when RunBatch was called, so its
// responses are mutually consistent even while AddObject/Observe traffic
// lands concurrently. Responses align with requests by index;
// per-request failures land in Response.Err, never panic the batch.
//
// It is RunBatchStats with sharing disabled, discarding the batch-level
// accounting.
func (p *Processor) RunBatch(reqs []Request, workers int) []Response {
	out, _ := p.RunBatchStats(reqs, BatchOptions{Workers: workers})
	return out
}

// normalizeRequest is the single validation point of both batch paths:
// it checks the request fields that must hold before a request may join
// a shared-world group (the fingerprint walks the query over the
// window, so the window and reference must be sane) or run
// independently, and maps the semantics to its predicate. Keeping one
// copy means a given invalid request fails with the same error whether
// or not sharing is enabled.
func normalizeRequest(req Request) (k int, op shard.GroupOp, err error) {
	k = req.K
	if k == 0 {
		k = 1
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("pnn: batch request needs k >= 1, got %d", k)
	}
	switch req.Semantics {
	case ForAll:
		op = shard.OpForAll
	case Exists:
		op = shard.OpExists
	case Continuous:
		op = shard.OpCNN
		if req.Tau <= 0 {
			return 0, 0, fmt.Errorf("pnn: PCNN requires tau > 0, got %v", req.Tau)
		}
	default:
		return 0, 0, fmt.Errorf("pnn: unknown batch semantics %q (want %q, %q or %q)",
			req.Semantics, ForAll, Exists, Continuous)
	}
	if req.Query.Zero() {
		return 0, 0, fmt.Errorf("pnn: batch request has a zero Query (build one with AtPoint, AtState or Moving)")
	}
	if req.Te < req.Ts {
		return 0, 0, fmt.Errorf("pnn: inverted interval [%d, %d]", req.Ts, req.Te)
	}
	if err := req.Confidence.Validate(); err != nil {
		return 0, 0, err
	}
	if req.MinWorlds < 0 {
		return 0, 0, fmt.Errorf("pnn: batch request needs MinWorlds >= 0, got %d", req.MinWorlds)
	}
	return k, op, nil
}

// groupKey fingerprints what the sampled worlds of a request depend on:
// the interval, k, the confidence policy and its MinWorlds floor (an
// adaptive group's stop point is a function of policy and floor, so
// requests differing in either must not share worlds) and the query's
// position at every timestep of the window. Two requests with equal
// keys can share one world set; the key's hash also fixes the group's
// seed under the sharing contract.
func groupKey(q Query, ts, te, k int, conf Confidence, minWorlds int) string {
	buf := make([]byte, 0, 56+16*(te-ts+1))
	var tmp [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(tmp[:], u)
		buf = append(buf, tmp[:]...)
	}
	put(uint64(ts))
	put(uint64(te))
	put(uint64(k))
	put(math.Float64bits(conf.Eps))
	put(math.Float64bits(conf.Delta))
	put(uint64(conf.MaxSamples))
	put(uint64(minWorlds))
	for t := ts; t <= te; t++ {
		pt := q.At(t)
		put(math.Float64bits(pt.X))
		put(math.Float64bits(pt.Y))
	}
	return string(buf)
}

// BatchForAllNN answers one P∀NN query per entry of qs over a shared
// interval and threshold, seeding request i with baseSeed+i. It is
// shorthand for RunBatch with ForAll requests.
func (p *Processor) BatchForAllNN(qs []Query, ts, te int, tau float64, baseSeed int64, workers int) []Response {
	return p.RunBatch(sameShape(ForAll, qs, ts, te, tau, baseSeed), workers)
}

// BatchExistsNN is BatchForAllNN with P∃NN semantics.
func (p *Processor) BatchExistsNN(qs []Query, ts, te int, tau float64, baseSeed int64, workers int) []Response {
	return p.RunBatch(sameShape(Exists, qs, ts, te, tau, baseSeed), workers)
}

func sameShape(sem Semantics, qs []Query, ts, te int, tau float64, baseSeed int64) []Request {
	reqs := make([]Request, len(qs))
	for i, q := range qs {
		reqs[i] = Request{Semantics: sem, Query: q, Ts: ts, Te: te, Tau: tau, Seed: baseSeed + int64(i)}
	}
	return reqs
}
