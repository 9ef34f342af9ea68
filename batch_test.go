package pnn

import (
	"math"
	"testing"
)

// batchDB builds a small grid database with a handful of objects moving
// through the center, plus the query used against it.
func batchDB(t *testing.T, samples int) (*Network, *Processor, Query) {
	t.Helper()
	net, err := NewGridNetwork(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(net)
	routes := [][2]Point{
		{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}},
		{{X: 0.9, Y: 0.1}, {X: 0.1, Y: 0.9}},
		{{X: 0.1, Y: 0.5}, {X: 0.9, Y: 0.5}},
		{{X: 0.5, Y: 0.1}, {X: 0.5, Y: 0.9}},
	}
	for i, r := range routes {
		a, b := net.NearestState(r[0]), net.NearestState(r[1])
		obs := net.ObservationsAlong(a, b, 0, 2, 4)
		if obs == nil {
			t.Fatalf("no path for route %d", i)
		}
		if err := db.Add(100+i, obs); err != nil {
			t.Fatal(err)
		}
	}
	proc, err := db.Build(samples)
	if err != nil {
		t.Fatal(err)
	}
	return net, proc, AtPoint(Point{X: 0.5, Y: 0.5})
}

func sameResponses(t *testing.T, a, b []Response) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("response counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if (a[i].Err == nil) != (b[i].Err == nil) {
			t.Fatalf("response %d: error mismatch: %v vs %v", i, a[i].Err, b[i].Err)
		}
		if len(a[i].Results) != len(b[i].Results) || len(a[i].Intervals) != len(b[i].Intervals) {
			t.Fatalf("response %d: cardinality mismatch", i)
		}
		for j := range a[i].Results {
			x, y := a[i].Results[j], b[i].Results[j]
			if x.ObjectID != y.ObjectID || math.Abs(x.Prob-y.Prob) > 1e-12 {
				t.Errorf("response %d result %d: %+v vs %+v", i, j, x, y)
			}
		}
		for j := range a[i].Intervals {
			x, y := a[i].Intervals[j], b[i].Intervals[j]
			if x.ObjectID != y.ObjectID || math.Abs(x.Prob-y.Prob) > 1e-12 || len(x.Times) != len(y.Times) {
				t.Errorf("response %d interval %d: %+v vs %+v", i, j, x, y)
			}
		}
	}
}

// TestRunBatchDeterministicAcrossWorkers is the batch API's core promise:
// answers depend only on each request's seed, not on the worker count or
// scheduling.
func TestRunBatchDeterministicAcrossWorkers(t *testing.T) {
	_, proc1, q := batchDB(t, 400)
	_, proc4, _ := batchDB(t, 400)
	var reqs []Request
	for i := 0; i < 12; i++ {
		sem := []Semantics{ForAll, Exists, Continuous}[i%3]
		tau := 0.05
		if sem == Continuous {
			tau = 0.3 // keep the lattice small
		}
		reqs = append(reqs, Request{
			Semantics: sem, Query: q, Ts: 1, Te: 1 + i%5, Tau: tau, Seed: int64(i),
		})
	}
	serial := proc1.RunBatch(reqs, 1)
	parallel := proc4.RunBatch(reqs, 4)
	sameResponses(t, serial, parallel)
	for i, r := range serial {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", i, r.Err)
		}
	}
}

// TestRunBatchMatchesSingleQueries: a batch answer is exactly the answer
// the single-query facade gives for the same parameters and seed.
func TestRunBatchMatchesSingleQueries(t *testing.T) {
	_, proc, q := batchDB(t, 300)
	reqs := []Request{
		{Semantics: ForAll, Query: q, Ts: 1, Te: 6, Tau: 0.05, Seed: 42},
		{Semantics: Exists, Query: q, Ts: 1, Te: 6, K: 2, Tau: 0.05, Seed: 43},
		{Semantics: Continuous, Query: q, Ts: 1, Te: 4, Tau: 0.3, Seed: 44},
	}
	batch := proc.RunBatch(reqs, 2)

	_, single, _ := batchDB(t, 300)
	fa, _, err := single.ForAllNN(q, 1, 6, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	ex, _, err := single.ExistsKNN(q, 1, 6, 2, 0.05, 43)
	if err != nil {
		t.Fatal(err)
	}
	cn, _, err := single.ContinuousNN(q, 1, 4, 0.3, 44)
	if err != nil {
		t.Fatal(err)
	}
	want := []Response{{Results: fa}, {Results: ex}, {Intervals: cn}}
	sameResponses(t, batch, want)
}

// TestRunHugeK checks that a k far beyond the object count — which
// request validation admits, since it only rejects k < 1 — answers like
// k = |D| (every alive object qualifies) for every semantics instead of
// sizing any buffer by k.
func TestRunHugeK(t *testing.T) {
	_, proc, q := batchDB(t, 300)
	for _, sem := range []Semantics{ForAll, Exists, Continuous} {
		req := Request{Semantics: sem, Query: q, Ts: 1, Te: 4, Tau: 0.3, Seed: 7}
		req.K = 4 // every object of batchDB
		want := proc.Run(req)
		req.K = 1 << 40
		got := proc.Run(req)
		if got.Err != nil || want.Err != nil {
			t.Fatalf("%s: errors %v / %v", sem, got.Err, want.Err)
		}
		if len(want.Results)+len(want.Intervals) == 0 {
			t.Fatalf("%s: k = |D| answered nothing", sem)
		}
		sameResponses(t, []Response{got}, []Response{want})
	}
}

// TestBatchWrappers checks the convenience wrappers seed request i with
// baseSeed+i.
func TestBatchWrappers(t *testing.T) {
	_, proc, q := batchDB(t, 200)
	qs := []Query{q, AtPoint(Point{X: 0.3, Y: 0.5}), AtPoint(Point{X: 0.7, Y: 0.3})}
	got := proc.BatchForAllNN(qs, 1, 5, 0.05, 7, 3)
	var reqs []Request
	for i, qq := range qs {
		reqs = append(reqs, Request{Semantics: ForAll, Query: qq, Ts: 1, Te: 5, Tau: 0.05, Seed: 7 + int64(i)})
	}
	sameResponses(t, got, proc.RunBatch(reqs, 1))

	gotEx := proc.BatchExistsNN(qs, 1, 5, 0.05, 7, 0)
	for i := range reqs {
		reqs[i].Semantics = Exists
	}
	sameResponses(t, gotEx, proc.RunBatch(reqs, 2))
}

// TestBatchWarmCache: the first batch adapts each influencer once; an
// identical batch on the warm processor adapts nothing.
func TestBatchWarmCache(t *testing.T) {
	_, proc, q := batchDB(t, 200)
	reqs := []Request{
		{Semantics: ForAll, Query: q, Ts: 1, Te: 6, Tau: 0, Seed: 1},
		{Semantics: ForAll, Query: q, Ts: 1, Te: 6, Tau: 0, Seed: 2},
		{Semantics: Exists, Query: q, Ts: 1, Te: 6, Tau: 0, Seed: 3},
	}
	cold, coldStats := proc.RunBatchStats(reqs, BatchOptions{Workers: 2})
	for _, r := range cold {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		// Build attribution to single requests is scheduling-dependent,
		// so the per-response field is always 0; the batch-level sum is
		// the deterministic account.
		if r.Stats.SamplerBuilds != 0 {
			t.Errorf("per-response SamplerBuilds = %d, want 0 (batch-level accounting)", r.Stats.SamplerBuilds)
		}
	}
	cs := proc.CacheStats()
	if int64(coldStats.SamplerBuilds) != cs.Builds {
		t.Errorf("batch reports %d builds, cache reports %d", coldStats.SamplerBuilds, cs.Builds)
	}
	if coldStats.SamplerBuilds == 0 {
		t.Fatal("cold batch should have adapted models")
	}
	if coldStats.Requests != len(reqs) {
		t.Errorf("BatchStats.Requests = %d, want %d", coldStats.Requests, len(reqs))
	}
	warm, warmStats := proc.RunBatchStats(reqs, BatchOptions{Workers: 2})
	if warmStats.SamplerBuilds != 0 {
		t.Errorf("warm batch rebuilt %d samplers", warmStats.SamplerBuilds)
	}
	if after := proc.CacheStats(); after.Builds != cs.Builds {
		t.Errorf("warm batch grew Builds from %d to %d", cs.Builds, after.Builds)
	}
	sameResponses(t, cold, warm)
}

// TestRunBatchValidation: malformed requests fail per-response without
// disturbing their neighbors.
func TestRunBatchValidation(t *testing.T) {
	_, proc, q := batchDB(t, 100)
	resps := proc.RunBatch([]Request{
		{Semantics: "nope", Query: q, Ts: 1, Te: 5},
		{Semantics: ForAll, Query: q, Ts: 1, Te: 5, K: -1},
		{Semantics: ForAll, Query: q, Ts: 5, Te: 1},
		{Semantics: Continuous, Query: q, Ts: 1, Te: 3}, // tau 0 invalid for PCNN
		{Semantics: Exists, Query: q, Ts: 1, Te: 5, Tau: 0.05, Seed: 8},
	}, 2)
	for i := 0; i < 4; i++ {
		if resps[i].Err == nil {
			t.Errorf("request %d should have failed", i)
		}
	}
	if resps[4].Err != nil {
		t.Errorf("valid request failed: %v", resps[4].Err)
	}
	if len(proc.RunBatch(nil, 4)) != 0 {
		t.Error("empty batch should return empty responses")
	}
}
