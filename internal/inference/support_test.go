package inference_test

import (
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/datagen"
	"pnn/internal/inference"
	"pnn/internal/mcrand"
	"pnn/internal/uncertain"
)

// supportDatasets returns the object sets the support property covers:
// the read-mix and ingest synthetic shapes of the end-to-end benchmark
// (with fewer objects), the taxi workload, and single-observation
// copies of the taxi objects, whose models have no transition at all.
func supportDatasets(t *testing.T) map[string][]*uncertain.Object {
	t.Helper()
	synth := func(states, objects, lifetime, horizon, every int) []*uncertain.Object {
		ds, err := datagen.Synthetic(datagen.SyntheticConfig{
			States: states, Branching: 8, Objects: objects, Lifetime: lifetime,
			Horizon: horizon, ObsInterval: every, Lag: 0.5, SelfWeight: 0.5,
		}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return ds.Objects
	}
	cfg := datagen.DefaultTaxiConfig()
	cfg.States, cfg.Taxis, cfg.Lifetime, cfg.Horizon, cfg.ObsInterval = 1200, 30, 60, 200, 8
	taxi, err := datagen.Taxi(cfg, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	var single []*uncertain.Object
	for _, o := range taxi.Objects {
		so, err := uncertain.NewObject(o.ID, o.Obs[:1], o.Chain)
		if err != nil {
			t.Fatal(err)
		}
		single = append(single, so)
	}
	return map[string][]*uncertain.Object{
		"read-mix": synth(10000, 30, 100, 1000, 10),
		"ingest":   synth(2500, 30, 100, 100, 5),
		"taxi":     taxi.Objects,
		"single":   single,
	}
}

// TestSupportCoversEmittedStates is the safety property of the exact
// refinement's distance bounds: every state a sampler emits at time t
// lies in Support(t), and a window slot is dead (-1) exactly where
// Support(t) is empty. Windows cover the whole lifetime, windows
// clipped at either end, single instants and windows disjoint from the
// lifetime.
func TestSupportCoversEmittedStates(t *testing.T) {
	const worlds = 64
	var sc inference.WalkScratch
	checked := 0
	for name, objs := range supportDatasets(t) {
		for _, o := range objs {
			m, err := inference.Adapt(o)
			if err != nil {
				t.Fatalf("%s object %d: %v", name, o.ID, err)
			}
			s := inference.NewSampler(m)
			st, en := m.Start(), m.End()
			mid := (st + en) / 2
			for _, win := range [][2]int{{st, en}, {st - 3, mid}, {mid, en + 3}, {mid, mid}, {en + 1, en + 4}} {
				ts, te := win[0], win[1]
				nT := te - ts + 1
				dst := make([]int32, worlds*nT)
				rng := mcrand.New(mcrand.SubSeed(int64(o.ID), ts))
				s.SampleWindowsInto(&rng, ts, te, worlds, dst, &sc)
				for w := 0; w < worlds; w++ {
					for ti := 0; ti < nT; ti++ {
						state := dst[w*nT+ti]
						supp := s.Support(ts + ti)
						if state < 0 {
							if len(supp) != 0 {
								t.Fatalf("%s object %d: dead at t=%d but support has %d states", name, o.ID, ts+ti, len(supp))
							}
							continue
						}
						if _, ok := slices.BinarySearch(supp, state); !ok {
							t.Fatalf("%s object %d: emitted state %d at t=%d outside its support %v", name, o.ID, state, ts+ti, supp)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 100000 {
		t.Fatalf("only %d emitted states checked; the property is vacuous", checked)
	}
}
