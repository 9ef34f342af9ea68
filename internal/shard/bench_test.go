package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pnn/internal/datagen"
	"pnn/internal/geo"
	"pnn/internal/query"
	"pnn/internal/uncertain"
)

// TestShardedIngestCloneBytes pins the acceptance criterion of the
// sharded store in-repo: at 4 shards one AddObject must allocate less
// than half of what it allocates unsharded, because the copy-on-write
// clone touches only the owning shard's slice of the index.
func TestShardedIngestCloneBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting; run in the full tier")
	}
	perAdd := func(shards int) float64 {
		sp, c := gridWorld(t, 30, 30)
		objs := make([]*uncertain.Object, 1600)
		for id := range objs {
			st := (id * 13) % sp.Len()
			objs[id] = mkObj(t, id, c,
				uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})
		}
		s, err := New(sp, objs, 100, shards)
		if err != nil {
			t.Fatal(err)
		}
		const adds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < adds; i++ {
			st := (i * 17) % sp.Len()
			if _, err := s.AddObject(mkObj(t, 1_000_000+i, c,
				uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / adds
	}
	b1, b4 := perAdd(1), perAdd(4)
	if b1 < 2*b4 {
		t.Errorf("AddObject allocates %.0f B at 1 shard vs %.0f B at 4 shards; want >= 2x reduction", b1, b4)
	}
}

// BenchmarkShardedIngest measures the copy-on-write cost of one
// AddObject as the shard count grows. Every write clones only the
// owning shard's R*-tree and bookkeeping slices, so bytes/op should
// drop roughly by the shard factor — the headline reason to shard an
// ingestion-heavy deployment.
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			sp, c := gridWorld(b, 30, 30)
			objs := make([]*uncertain.Object, 1600)
			for id := range objs {
				st := (id * 13) % sp.Len()
				objs[id] = mkObj(b, id, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})
			}
			s, err := New(sp, objs, 100, shards)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := (i * 17) % sp.Len()
				if _, err := s.AddObject(mkObj(b, 1_000_000+i, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 8, State: st})); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedQuery measures scatter-gather refinement: the
// expensive per-object world sampling runs one goroutine per shard, so
// wall-clock per query should shrink with shards on a multi-core host.
// It also reports the influencer rows sampled (rows/op) and ∀
// candidates (cands/op) left by the filter and the exact refinement:
// counts that do not depend on the hardware, so benchdiff gates them on
// any CPU and a loosened pruning step fails the gate.
func BenchmarkShardedQuery(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			sp, c := gridWorld(b, 30, 30)
			// Cluster the fleet around the query point so most objects
			// survive the filter and refinement dominates.
			center := 15*30 + 15
			objs := make([]*uncertain.Object, 64)
			for id := range objs {
				st := center + (id%8 - 4) + 30*(id/8%8-4)
				objs[id] = mkObj(b, id, c,
					uncertain.Observation{T: 0, State: st}, uncertain.Observation{T: 16, State: st})
			}
			s, err := New(sp, objs, 2000, shards)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.PrepareAll(); err != nil {
				b.Fatal(err)
			}
			snap := s.Snapshot()
			q := query.StateQuery(sp.Point(center))
			b.ReportAllocs()
			b.ResetTimer()
			rows, cands := 0, 0
			for i := 0; i < b.N; i++ {
				_, st, err := snap.ExistsKNN(q, 1, 15, 1, 0.01, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				rows += st.Influencers
				cands += st.Candidates
			}
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
		})
	}
}

// BenchmarkRefinedRead measures one round of 32 one-shot ∃ reads on the
// read-mix shape of the end-to-end benchmark (10000 states, 1000
// objects over a 1000-tic horizon, 2 shards), restricted to the objects
// alive around the reads' windows so set-up stays short: k = 1..3,
// static references and references walking the network. Besides ns/op
// it reports, per read, the influencer rows the two shards' filters
// keep (filter-rows/read) and the rows and ∀ candidates left after the
// exact refinement (rows/read, cands/read). The counts do not depend on
// the hardware, so benchdiff gates them on any CPU: a loosened
// refinement raises rows/read toward filter-rows/read and fails the
// gate.
func BenchmarkRefinedRead(b *testing.B) {
	ds, err := datagen.Synthetic(datagen.SyntheticConfig{
		States: 10000, Branching: 8, Objects: 1000, Lifetime: 100, Horizon: 1000,
		ObsInterval: 10, Lag: 0.5, SelfWeight: 0.5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	const t0, t1 = 500, 519 // every read's window lies inside [t0, t1]
	var objs []*uncertain.Object
	for _, o := range ds.Objects {
		if o.First().T <= t1 && o.Last().T >= t0 {
			objs = append(objs, o)
		}
	}
	s, err := New(ds.Space, objs, 1000, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.PrepareAll(); err != nil {
		b.Fatal(err)
	}
	snap := s.Snapshot()
	rng := rand.New(rand.NewSource(7))
	specs := make([]GroupSpec, 32)
	for i := range specs {
		ts := t0 + rng.Intn(t1-t0-8)
		st := rng.Intn(ds.Space.Len())
		q := query.StateQuery(ds.Space.Point(st))
		if i%4 == 3 {
			pts := make([]geo.Point, 10)
			for j := range pts {
				pts[j] = ds.Space.Point(st)
				nb := ds.Space.Neighbors(st)
				st = int(nb[rng.Intn(len(nb))])
			}
			q = query.TrajectoryQuery(ts, pts)
		}
		specs[i] = GroupSpec{Q: q, Ts: ts, Te: ts + 9, K: 1 + i%3, Seed: int64(i)}
	}
	filtered := 0
	for _, spec := range specs {
		for _, p := range snap.Parts {
			pr, err := p.Engine.PruneWindow(spec.Q, spec.Ts, spec.Te, spec.K)
			if err != nil {
				b.Fatal(err)
			}
			filtered += len(pr.Influencers)
		}
	}
	items := []GroupItem{{Op: OpExists, Tau: 0.1}}
	b.ReportAllocs()
	b.ResetTimer()
	rows, cands := 0, 0
	for i := 0; i < b.N; i++ {
		rows, cands = 0, 0
		for _, spec := range specs {
			_, st, err := snap.RunShared(spec, items)
			if err != nil {
				b.Fatal(err)
			}
			rows += st.Influencers
			cands += st.Candidates
		}
	}
	reads := float64(len(specs))
	b.ReportMetric(float64(filtered)/reads, "filter-rows/read")
	b.ReportMetric(float64(rows)/reads, "rows/read")
	b.ReportMetric(float64(cands)/reads, "cands/read")
}
