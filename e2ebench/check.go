package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"pnn"
	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/server"
)

// answer is the layout-free part of one query answer: what every
// deployment shape must reproduce byte for byte at a given snapshot
// version and seed. Candidate and influencer counts, sampler builds and
// the version vector's shape depend on how objects are partitioned and
// are left out, as in the repository's cluster conformance tests.
type answer struct {
	Results   []server.ResultJSON   `json:"results"`
	Intervals []server.IntervalJSON `json:"intervals"`
	Sampling  server.SamplingJSON   `json:"sampling"`
	Worlds    int                   `json:"worlds"`
	Version   int64                 `json:"version"`
	Error     string                `json:"error,omitempty"`
}

func answerOfHTTP(q server.QueryResponse) answer {
	a := answer{Results: q.Results, Intervals: q.Intervals, Sampling: q.Sampling, Worlds: q.Stats.Worlds, Version: q.Version.Max}
	if q.Error != nil {
		a.Error = q.Error.Code
	}
	return a.norm()
}

func answerOfFacade(r pnn.Response) answer {
	a := answer{
		Sampling: server.SamplingJSON{SamplesDrawn: r.Stats.Worlds, ErrorBound: r.Stats.ErrorBound, EarlyStopped: r.Stats.EarlyStopped},
		Worlds:   r.Stats.Worlds,
		Version:  r.Version.Max,
	}
	for _, x := range r.Results {
		a.Results = append(a.Results, server.ResultJSON{ObjectID: x.ObjectID, Prob: x.Prob})
	}
	for _, x := range r.Intervals {
		a.Intervals = append(a.Intervals, server.IntervalJSON{ObjectID: x.ObjectID, Times: x.Times, Prob: x.Prob})
	}
	if r.Err != nil {
		a.Error = r.Err.Error()
	}
	return a.norm()
}

func (a answer) norm() answer {
	if len(a.Results) == 0 {
		a.Results = nil
	}
	if len(a.Intervals) == 0 {
		a.Intervals = nil
	}
	return a
}

func sameAnswer(got, want answer) (bool, string) {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if bytes.Equal(g, w) {
		return true, ""
	}
	return false, fmt.Sprintf("http %.300s\nreference %.300s", g, w)
}

// checkRead compares one sampled HTTP answer with the reference's.
func checkRead(b *bench, ck checkedRead, ref func(readOp) []pnn.Response) {
	b.attempted.Add(1)
	want := ref(ck.op)
	var got []server.QueryResponse
	if ck.op.kind == "batch" {
		var br server.BatchResponse
		if err := json.Unmarshal(ck.body, &br); err != nil {
			b.fail("check batch: %v", err)
			return
		}
		got = br.Responses
	} else {
		var qr server.QueryResponse
		if err := json.Unmarshal(ck.body, &qr); err != nil {
			b.fail("check %s: %v", ck.op.kind, err)
			return
		}
		got = []server.QueryResponse{qr}
	}
	if len(got) != len(want) {
		b.fail("check %s: %d answers, reference has %d", ck.op.kind, len(got), len(want))
		return
	}
	for i := range got {
		if ok, diff := sameAnswer(answerOfHTTP(got[i]), answerOfFacade(want[i])); !ok {
			b.fail("check %s item %d of %s %.300s differs:\n%s", ck.op.kind, i, ck.op.path, ck.op.body, diff)
			return
		}
	}
}

// oracleCheck runs once before timing: on a 4x4 grid with three
// objects, the facade's Monte-Carlo ∀/∃ probabilities must lie within
// their reported Hoeffding error bound of exact possible-world
// enumeration (query.ExactNN). The tiny world and its query seeds are
// fixed, so the gate does not depend on the benchmark seed.
func oracleCheck(b *bench) error {
	net, err := pnn.NewGridNetwork(4, 4)
	if err != nil {
		return err
	}
	db := pnn.NewDB(net)
	objs := [][]pnn.Observation{
		{{T: 0, State: 0}, {T: 5, State: 6}},
		{{T: 0, State: 15}, {T: 5, State: 9}},
		{{T: 0, State: 3}, {T: 5, State: 5}},
	}
	for i, obs := range objs {
		if err := db.Add(i+1, obs); err != nil {
			return err
		}
	}
	proc, err := db.Build(20000)
	if err != nil {
		return err
	}
	tree := proc.ShardSet().Snapshot().Parts[0].Engine.Tree()
	var worlds []query.WorldObject
	ids := make([]int, 0, tree.Len())
	for _, o := range tree.Objects() {
		m, err := inference.Adapt(o)
		if err != nil {
			return err
		}
		wo, err := query.PathsOfModel(m, 1<<14)
		if err != nil {
			return err
		}
		worlds = append(worlds, wo)
		ids = append(ids, o.ID)
	}
	for qi, state := range []int{5, 10} {
		const ts, te = 1, 4
		q := pnn.AtState(net, state)
		exact, err := query.ExactNN(net.Space(), worlds, q, ts, te, 1<<22)
		if err != nil {
			return err
		}
		for _, sem := range []pnn.Semantics{pnn.ForAll, pnn.Exists} {
			b.attempted.Add(1)
			resp := proc.Run(pnn.Request{Semantics: sem, Query: q, Ts: ts, Te: te, Tau: 0, Seed: int64(101 + qi)})
			if resp.Err != nil {
				b.fail("oracle %s at state %d: %v", sem, state, resp.Err)
				continue
			}
			got := map[int]float64{}
			for _, r := range resp.Results {
				got[r.ObjectID] = r.Prob
			}
			truth := exact.ForAll
			if sem == pnn.Exists {
				truth = exact.Exists
			}
			for oi, id := range ids {
				if d := math.Abs(got[id] - truth[oi]); d > resp.Stats.ErrorBound {
					b.fail("oracle %s at state %d: object %d Monte-Carlo %.5f vs exact %.5f (|Δ| %.5f > error_bound %.5f)",
						sem, state, id, got[id], truth[oi], d, resp.Stats.ErrorBound)
				}
			}
		}
	}
	return nil
}
