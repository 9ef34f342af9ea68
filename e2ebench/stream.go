package main

import (
	"encoding/json"
	"math/rand"
	"sync"

	"pnn"
	"pnn/internal/server"
)

// readOp is one generated read: the HTTP request and the facade
// request(s) it must be equivalent to, which the correctness check
// answers in-process.
type readOp struct {
	kind  string // fixed | adaptive | knn | pcnn | traj | batch
	path  string
	body  []byte
	reqs  []pnn.Request // one, or the batch items in order
	share int64         // batch shared seed
	group int64         // batch: the seed its one shared-world group draws from
	check bool          // answer is compared against the reference
}

// Read-mix stream parameters (README.md): ten-tic windows over the
// middle of the 1000-tic horizon, where objects are alive.
const (
	readWindow  = 10
	readTsMin   = 100
	readTsSpan  = 790
	readTau     = 0.1
	adaptiveEps = 0.05
	batchSize   = 8
	checkRate   = 1.0 / 16
)

// readGen produces the read stream of one phase from the benchmark
// seed; the clients take requests from it in turn, so the inputs depend
// on the seed alone and a run's requests are always a prefix of its
// stream. Request kinds follow a fixed ten-slot pattern with the mix's
// shares; the query state and the window start of every request are
// drawn independently and uniformly, so a run of a few thousand
// requests costs alike whatever the seed.
type readGen struct {
	mu  sync.Mutex
	rng *rand.Rand
	net *pnn.Network
	n   int
}

var kindPattern = []string{"fixed", "adaptive", "knn", "fixed", "adaptive", "pcnn", "fixed", "adaptive", "traj", "batch"}

func newReadGen(net *pnn.Network, seed int64) *readGen {
	return &readGen{rng: rand.New(rand.NewSource(seed)), net: net}
}

func (g *readGen) semantics() (pnn.Semantics, string) {
	if g.rng.Intn(2) == 0 {
		return pnn.ForAll, "/v1/forallnn"
	}
	return pnn.Exists, "/v1/existsnn"
}

func (g *readGen) next() readOp {
	g.mu.Lock()
	defer g.mu.Unlock()
	kind := kindPattern[g.n%len(kindPattern)]
	g.n++
	state := g.rng.Intn(g.net.NumStates())
	ts := readTsMin + g.rng.Intn(readTsSpan)
	te := ts + readWindow - 1
	seed := g.rng.Int63()
	check := g.rng.Float64() < checkRate
	ref := server.QueryRef{State: &state}
	q := pnn.AtState(g.net, state)
	spec := server.QuerySpec{Query: &ref, Window: &server.Window{Ts: ts, Te: te}, Tau: readTau, Seed: seed}
	req := pnn.Request{Query: q, Ts: ts, Te: te, Tau: readTau, Seed: seed}
	op := readOp{kind: kind, check: check}
	switch kind {
	case "fixed":
		req.Semantics, op.path = g.semantics()
	case "adaptive":
		req.Semantics, op.path = g.semantics()
		spec.Confidence = &server.ConfidenceJSON{Eps: adaptiveEps}
		req.Confidence = pnn.Confidence{Eps: adaptiveEps}
	case "knn":
		req.Semantics, op.path = g.semantics()
		spec.K, req.K = 3, 3
	case "pcnn":
		req.Semantics, op.path = pnn.Continuous, "/v1/pcnn"
		spec.Tau, req.Tau = 0.3, 0.3
	case "traj":
		// A reference moving in a straight line from one state toward
		// another at a tenth of their distance per window.
		req.Semantics, op.path = g.semantics()
		a, to := g.net.StatePoint(state), g.net.StatePoint(g.rng.Intn(g.net.NumStates()))
		pts := make([]pnn.Point, readWindow)
		wire := make([]server.Point, readWindow)
		for i := range pts {
			f := 0.1 * float64(i) / float64(readWindow-1)
			pts[i] = pnn.Point{X: a.X + f*(to.X-a.X), Y: a.Y + f*(to.Y-a.Y)}
			wire[i] = server.Point{X: pts[i].X, Y: pts[i].Y}
		}
		spec.Query = &server.QueryRef{Trajectory: &server.Trajectory{Start: ts, Points: wire}}
		req.Query = pnn.Moving(ts, pts)
	default:
		return g.batch(op, spec, req)
	}
	op.reqs = []pnn.Request{req}
	op.body = mustJSON(spec)
	return op
}

// batch builds batchSize same-shape requests (one reference, window and
// k; mixed semantics and taus) sent with share_worlds, so they coalesce
// into a single shared-world group.
func (g *readGen) batch(op readOp, spec server.QuerySpec, req pnn.Request) readOp {
	op.path = "/v1/batch"
	op.share = req.Seed
	share := true
	br := server.BatchRequest{ShareWorlds: &share, SharedSeed: op.share}
	taus := []float64{0.05, 0.1, 0.2, 0.3}
	for i := 0; i < batchSize; i++ {
		item := spec
		item.Seed = 0
		item.Tau = taus[i%len(taus)]
		r := req
		r.Seed, r.Tau = 0, item.Tau
		sem := pnn.ForAll
		if i%2 == 1 {
			sem = pnn.Exists
		}
		r.Semantics = sem
		br.Requests = append(br.Requests, server.BatchItem{Semantics: string(sem), QuerySpec: item})
		op.reqs = append(op.reqs, r)
	}
	_, op.group, _ = pnn.ShareGroup(op.share, op.reqs[0])
	op.body = mustJSON(br)
	return op
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of the server's wire types are marshalled
	}
	return b
}
