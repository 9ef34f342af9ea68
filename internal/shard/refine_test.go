package shard

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pnn/internal/datagen"
	"pnn/internal/geo"
	"pnn/internal/inference"
	"pnn/internal/query"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// tinyRefineWorld is a 5×5 grid with six objects small enough for
// exact possible-world enumeration (about 28000 worlds): three movers
// crossing the grid (one born and one dying inside the window, so rows
// have dead timesteps) and three nearly parked objects.
func tinyRefineWorld(t *testing.T) (*space.Space, []*uncertain.Object) {
	t.Helper()
	sp, c := gridWorld(t, 5, 5)
	obs := func(pairs ...int) []uncertain.Observation {
		var out []uncertain.Observation
		for i := 0; i < len(pairs); i += 2 {
			out = append(out, uncertain.Observation{T: pairs[i], State: pairs[i+1]})
		}
		return out
	}
	objs := []*uncertain.Object{
		mkObj(t, 11, c, obs(0, 0, 3, 7, 6, 18)...),
		mkObj(t, 12, c, obs(0, 4, 3, 8, 5, 13)...),
		mkObj(t, 13, c, obs(2, 2, 4, 7, 6, 17)...),
		mkObj(t, 14, c, obs(0, 6, 3, 6, 4, 6, 5, 6, 6, 11)...),
		mkObj(t, 15, c, obs(0, 18, 1, 18, 2, 18, 4, 18, 5, 18, 6, 18)...),
		mkObj(t, 16, c, obs(0, 23, 1, 23, 2, 23, 3, 23, 5, 22, 6, 22)...),
	}
	return sp, objs
}

// exactKNN enumerates every possible world of objs and returns, per
// object, the probability of being among the k nearest of q at each
// window time (at[oi][t-ts]) and at every window time (all[oi]). An
// object is among the k nearest at t when it is alive and fewer than k
// alive others are strictly closer (Definition 1, ties included).
func exactKNN(t *testing.T, sp *space.Space, objs []*uncertain.Object, q query.Query, ts, te, k int) (at [][]float64, all []float64) {
	t.Helper()
	worlds := make([]query.WorldObject, len(objs))
	for i, o := range objs {
		m, err := inference.Adapt(o)
		if err != nil {
			t.Fatal(err)
		}
		if worlds[i], err = query.PathsOfModel(m, 1<<12); err != nil {
			t.Fatal(err)
		}
	}
	nT := te - ts + 1
	at = make([][]float64, len(objs))
	for i := range at {
		at[i] = make([]float64, nT)
	}
	all = make([]float64, len(objs))
	dist := make([]float64, len(objs))
	in := make([]bool, len(objs))
	err := query.EnumerateWorlds(worlds, 1<<21, func(paths []uncertain.Path, p float64) {
		for oi := range in {
			in[oi] = true
		}
		for tt := ts; tt <= te; tt++ {
			qp := q.At(tt)
			for oi, path := range paths {
				dist[oi] = math.Inf(1)
				if s, ok := path.At(tt); ok {
					dist[oi] = sp.Point(s).Dist(qp)
				}
			}
			for oi, d := range dist {
				closer := 0
				for oj, dj := range dist {
					if oj != oi && dj < d {
						closer++
					}
				}
				if !math.IsInf(d, 1) && closer < k {
					at[oi][tt-ts] += p
				} else {
					in[oi] = false
				}
			}
		}
		for oi, ok := range in {
			if ok {
				all[oi] += p
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return at, all
}

// TestRefinementDropsOnlyZeroProbabilityRows checks the exact
// refinement against possible-world enumeration: every influencer row
// the refinement drops has probability exactly 0 of being among the k
// nearest at any window time, and every ∀ candidate it drops has
// probability exactly 0 of being among them throughout, for k ∈
// {1, 2, 3} and static and trajectory queries. Gather's reported
// influencers must equal the peer-side refinement of a single shard,
// whose thresholds are the global ones.
func TestRefinementDropsOnlyZeroProbabilityRows(t *testing.T) {
	sp, objs := tinyRefineWorld(t)
	set, err := New(sp, objs, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap := set.Snapshot()
	eng := snap.Parts[0].Engine
	pos := make(map[int]int, len(objs)) // object ID -> index into objs
	for i, o := range objs {
		pos[o.ID] = i
	}
	traj := query.TrajectoryQuery(0, []geo.Point{
		sp.Point(0), sp.Point(6), sp.Point(12), sp.Point(18), sp.Point(24), sp.Point(24), sp.Point(23),
	})
	queries := map[string]query.Query{
		"static-center": query.StateQuery(sp.Point(12)),
		"static-corner": query.StateQuery(sp.Point(0)),
		"static-edge":   query.StateQuery(sp.Point(22)),
		"trajectory":    traj,
	}
	droppedRows, droppedCands := 0, 0
	for name, q := range queries {
		for _, win := range [][2]int{{1, 5}, {0, 6}, {3, 4}} {
			ts, te := win[0], win[1]
			for k := 1; k <= 3; k++ {
				label := fmt.Sprintf("%s [%d,%d] k=%d", name, ts, te, k)
				pr, err := eng.PruneWindow(q, ts, te, k)
				if err != nil {
					t.Fatal(err)
				}
				spec := GroupSpec{Q: q, Ts: ts, Te: te, K: k, Seed: 5}
				sc, err := snap.Scatter(spec)
				if err != nil {
					t.Fatal(err)
				}
				_, _, inf, err := snap.RunSharedInfluence(spec, []GroupItem{{Op: OpExists, Tau: 0.1}})
				if err != nil {
					t.Fatal(err)
				}
				var kept []int
				for _, r := range sc.Rows {
					kept = append(kept, r.ID)
				}
				sort.Ints(kept)
				if !reflect.DeepEqual(kept, inf.IDs) {
					t.Fatalf("%s: gather keeps %v, single-shard scatter keeps %v", label, inf.IDs, kept)
				}
				at, all := exactKNN(t, sp, objs, q, ts, te, k)
				for _, oi := range pr.Influencers {
					id := snap.Parts[0].IDs[oi]
					if _, ok := slices.BinarySearch(kept, id); ok {
						continue
					}
					droppedRows++
					for ti, p := range at[pos[id]] {
						if p != 0 {
							t.Errorf("%s: dropped object %d is among the %d nearest at t=%d with probability %g", label, id, k, ts+ti, p)
						}
					}
				}
				for _, oi := range pr.Candidates {
					id := snap.Parts[0].IDs[oi]
					if _, ok := slices.BinarySearch(sc.CandIDs, id); ok {
						continue
					}
					droppedCands++
					if p := all[pos[id]]; p != 0 {
						t.Errorf("%s: dropped ∀ candidate %d is among the %d nearest throughout with probability %g", label, id, k, p)
					}
				}
			}
		}
	}
	t.Logf("refinement dropped %d influencer rows and %d ∀ candidates", droppedRows, droppedCands)
	if droppedRows == 0 || droppedCands == 0 {
		t.Fatalf("refinement dropped %d rows and %d candidates; the property is vacuous", droppedRows, droppedCands)
	}
}

// refinedSets returns the refined influencer and ∀ candidate IDs of a
// merged gather input, ascending.
func refinedSets(in GatherInput, spec GroupSpec) (rows, cands []int) {
	kept, keptCands, _ := refineRows(spec.K, spec.Te-spec.Ts+1, in.Rows, in.Cands, nil)
	for _, r := range kept {
		rows = append(rows, r.ID)
	}
	for _, ri := range keptCands {
		cands = append(cands, kept[ri].ID)
	}
	sort.Ints(rows)
	sort.Ints(cands)
	return rows, cands
}

// TestRefinedSetsLayoutIndependent checks that the exact refinement
// removes the layout dependence of the filter step: the refined
// influencer and ∀ candidate ID sets are equal on 1, 2 and 4 shards and
// through a router that merges two peers' scatters (partitioned by ID
// parity, unlike any shard hash), for k ∈ {1, 2, 3} and static and
// trajectory queries on a small synthetic workload — while the
// filter's own sets do differ between layouts for some of these
// queries.
func TestRefinedSetsLayoutIndependent(t *testing.T) {
	ds, err := datagen.Synthetic(datagen.SyntheticConfig{
		States: 800, Branching: 6, Objects: 80, Lifetime: 40, Horizon: 120,
		ObsInterval: 6, Lag: 0.5, SelfWeight: 0.5,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 50
	sets := make(map[int]*Set)
	for _, shards := range []int{1, 2, 4} {
		s, err := New(ds.Space, ds.Objects, samples, shards)
		if err != nil {
			t.Fatal(err)
		}
		sets[shards] = s
	}
	var partA, partB []*uncertain.Object
	for _, o := range ds.Objects {
		if o.ID%2 == 0 {
			partA = append(partA, o)
		} else {
			partB = append(partB, o)
		}
	}
	peerA, err := New(ds.Space, partA, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	peerB, err := New(ds.Space, partB, samples, 1)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(21))
	filterDiffers := 0
	for qi := 0; qi < 24; qi++ {
		ts := 5 + rng.Intn(100)
		te := ts + 4 + rng.Intn(8)
		q := query.StateQuery(ds.Space.Point(rng.Intn(ds.Space.Len())))
		if qi%2 == 1 {
			pts := make([]geo.Point, te-ts+1)
			for i := range pts {
				pts[i] = ds.Space.Point(rng.Intn(ds.Space.Len()))
			}
			q = query.TrajectoryQuery(ts, pts)
		}
		spec := GroupSpec{Q: q, Ts: ts, Te: te, K: 1 + qi%3, Seed: int64(qi)}
		label := fmt.Sprintf("query %d [%d,%d] k=%d", qi, ts, te, spec.K)

		var wantRows, wantCands []int
		filterSizes := map[[2]int]bool{}
		for _, shards := range []int{1, 2, 4} {
			snap := sets[shards].Snapshot()
			x, err := snap.scatter(spec)
			if err != nil {
				t.Fatal(err)
			}
			filterSizes[[2]int{len(x.rows), len(x.cands)}] = true
			rows, cands := refinedSets(GatherInput{Rows: x.rows, Cands: x.cands}, spec)
			_, st, inf, err := snap.RunSharedInfluence(spec, []GroupItem{{Op: OpForAll, Tau: 0.1}})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(inf.IDs, rows) || st.Influencers != len(rows) || st.Candidates != len(cands) {
				t.Fatalf("%s shards %d: gather reports %v (%d influencers, %d candidates), refinement keeps %v and %d candidates",
					label, shards, inf.IDs, st.Influencers, st.Candidates, rows, len(cands))
			}
			if shards == 1 {
				wantRows, wantCands = rows, cands
				continue
			}
			if !slices.Equal(rows, wantRows) || !slices.Equal(cands, wantCands) {
				t.Errorf("%s: %d shards refine to rows %v cands %v, 1 shard to rows %v cands %v",
					label, shards, rows, cands, wantRows, wantCands)
			}
		}
		if len(filterSizes) > 1 {
			filterDiffers++
		}

		scA, err := peerA.Snapshot().Scatter(spec)
		if err != nil {
			t.Fatal(err)
		}
		scB, err := peerB.Snapshot().Scatter(spec)
		if err != nil {
			t.Fatal(err)
		}
		in, err := MergeScatters([]*ScatterResult{scA, scB})
		if err != nil {
			t.Fatal(err)
		}
		in.Space = ds.Space
		rows, cands := refinedSets(in, spec)
		_, st, inf, err := Gather(spec, []GroupItem{{Op: OpForAll, Tau: 0.1}}, in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rows, wantRows) || !slices.Equal(cands, wantCands) ||
			!slices.Equal(inf.IDs, wantRows) || st.Candidates != len(wantCands) {
			t.Errorf("%s: router refines to rows %v cands %v (gather %v, %d candidates), 1 shard to rows %v cands %v",
				label, rows, cands, inf.IDs, st.Candidates, wantRows, wantCands)
		}
	}
	t.Logf("filter sets differ between layouts for %d of 24 queries", filterDiffers)
	if filterDiffers == 0 {
		t.Fatal("the filter's sets agree across layouts for every query; the property is vacuous")
	}
}

// TestGatherRejectsMissingBounds checks that Gather refuses rows whose
// distance bounds do not span the window — the refinement never runs
// on rows it cannot judge — and specs it cannot refine.
func TestGatherRejectsMissingBounds(t *testing.T) {
	spec := GroupSpec{Q: query.StateQuery(geo.Point{}), Ts: 0, Te: 2, K: 1}
	items := []GroupItem{{Op: OpExists, Tau: 0.1}}
	three := []float64{0, 1, 2}
	for _, rows := range [][]GatherRow{
		{{ID: 1, States: make([]int32, 3)}},
		{{ID: 1, States: make([]int32, 3), DMin: three, DMax: three[:2]}},
	} {
		if _, _, _, err := Gather(spec, items, GatherInput{Rows: rows, Samples: 1}); err == nil {
			t.Errorf("rows %+v accepted", rows)
		}
	}
	rows := []GatherRow{{ID: 1, States: make([]int32, 3), DMin: three, DMax: three}}
	for _, bad := range []GroupSpec{{Q: spec.Q, Ts: 2, Te: 0, K: 1}, {Q: spec.Q, Ts: 0, Te: 2, K: 0}} {
		if _, _, _, err := Gather(bad, items, GatherInput{Rows: rows, Samples: 1}); err == nil {
			t.Errorf("spec [%d,%d] k=%d accepted", bad.Ts, bad.Te, bad.K)
		}
	}
}

// TestRefineHugeK checks that a client-chosen k far beyond the row
// count refines nothing away and allocates nothing k-sized: with fewer
// than k rows alive, every threshold is +Inf.
func TestRefineHugeK(t *testing.T) {
	inf := math.Inf(1)
	rows := []GatherRow{
		{ID: 1, DMin: []float64{0, 1}, DMax: []float64{1, 2}},
		{ID: 2, DMin: []float64{5, inf}, DMax: []float64{6, inf}},
		{ID: 3, DMin: []float64{inf, inf}, DMax: []float64{inf, inf}},
	}
	kept, cands, _ := refineRows(1<<40, 2, rows, []int{0, 1}, nil)
	if len(kept) != 2 || kept[0].ID != 1 || kept[1].ID != 2 || !slices.Equal(cands, []int{0}) {
		t.Errorf("k=2^40 keeps %+v with candidates %v; want objects 1 and 2, candidate row 0", kept, cands)
	}
}
