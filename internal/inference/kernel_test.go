package inference

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pnn/internal/markov"
	"pnn/internal/mcrand"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// TestFusedEntryMatchesFloatTest pins the integer encoding of the
// Walker acceptance test: for every low-32-bit draw x, "x >= thr, then
// take alias" must pick the same slot as the float test "x·2⁻³² >=
// prob, then take alias" it replaced — including at the thresholds'
// exact boundaries, at prob 0 and 1, for tiny negative leftovers of
// Vose's construction, for probabilities within 2⁻³² of 1 (where the
// threshold overflows and the slot becomes its own alias) and for NaN.
func TestFusedEntryMatchesFloatTest(t *testing.T) {
	const self, alias = 5, 9
	probs := []float64{0, 1, -1e-17, math.NaN(), 0.5, 1 - 0x1p-33, 1 - 0x1p-32, 1 - 0x1p-31,
		0x1p-32, 0x1p-33, 3 * 0x1p-32, (3 + 1e-9) * 0x1p-32, 0.999999999}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		probs = append(probs, rng.Float64())
	}
	for _, prob := range probs {
		var e aliasEntry
		e.set(prob, alias, self)
		thr, al := e.thr, e.alias
		xs := []uint32{0, 1, 2, 3, 4, math.MaxUint32, math.MaxUint32 - 1, thr, thr - 1, thr + 1}
		for i := 0; i < 64; i++ {
			xs = append(xs, rng.Uint32())
		}
		for _, x := range xs {
			want := int32(self)
			if float64(x)*(1.0/(1<<32)) >= prob {
				want = alias
			}
			got := int32(self)
			if x >= thr {
				got = al
			}
			if got != want {
				t.Fatalf("prob %v x %d: fused picks %d, float test %d (thr %d)", prob, x, got, want, thr)
			}
		}
	}
}

// kernelSamplers returns samplers covering the shapes the world kernel
// meets: random walks on a branching synthetic network (multi-slot alias
// rows, lifetimes starting away from 0), the three-observation line
// fixture, and a single-observation model with no transition tables.
func kernelSamplers(t *testing.T) []*Sampler {
	t.Helper()
	sp, err := space.Synthetic(400, 8, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := markov.NewHomogeneous(sp.TransitionMatrix(0.5))
	if err != nil {
		t.Fatal(err)
	}
	mat := chain.At(0)
	var out []*Sampler
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 4; i++ {
		start, lifetime, gap := 5+rng.Intn(5), 12+rng.Intn(20), 3+rng.Intn(4)
		cur := rng.Intn(sp.Len())
		obs := []uncertain.Observation{{T: start, State: cur}}
		for tt := start + 1; tt <= start+lifetime; tt++ {
			cols, _ := mat.Row(cur)
			cur = int(cols[rng.Intn(len(cols))])
			if (tt-start)%gap == 0 || tt == start+lifetime {
				obs = append(obs, uncertain.Observation{T: tt, State: cur})
			}
		}
		o, err := uncertain.NewObject(i, obs, chain)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Adapt(o)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, NewSampler(m))
	}
	s, _ := windowSampler(t)
	out = append(out, s)
	single, err := Adapt(lineObject(t, 5, 1, []uncertain.Observation{{T: 3, State: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, NewSampler(single))
}

// TestSampleWindowsIntoMatchesPerWorld is the byte-identity property of
// the time-major kernel: n worlds drawn by SampleWindowsInto equal n
// successive SampleWindowInto calls — every state column and the
// generator state afterwards — for windows inside the lifetime, clipped
// at either or both ends, of a single instant, and disjoint from the
// lifetime (zero draws consumed), at odd and even world counts, with
// one scratch reused throughout.
func TestSampleWindowsIntoMatchesPerWorld(t *testing.T) {
	var sc WalkScratch
	for si, s := range kernelSamplers(t) {
		st, en := s.Model().Start(), s.Model().End()
		mid := (st + en) / 2
		windows := [][2]int{
			{st, en}, {st + 1, en - 1}, {st - 4, mid}, {mid, en + 6}, {st - 2, en + 3},
			{mid, mid}, {st, st}, {en, en}, {st - 9, st - 1}, {en + 1, en + 5}, {st - 1, st - 1},
		}
		for _, win := range windows {
			ts, te := win[0], win[1]
			if te < ts {
				continue
			}
			nT := te - ts + 1
			for _, n := range []int{1, 2, 7, 33, 256} {
				seed := int64(si*1000 + n)
				a, b := mcrand.New(seed), mcrand.New(seed)
				want := make([]int32, n*nT)
				wantOK := false
				for w := 0; w < n; w++ {
					wantOK = s.SampleWindowInto(&a, ts, te, want[w*nT:(w+1)*nT])
				}
				got := make([]int32, n*nT)
				for i := range got {
					got[i] = 99
				}
				gotOK := s.SampleWindowsInto(&b, ts, te, n, got, &sc)
				if gotOK != wantOK {
					t.Fatalf("sampler %d window %v n %d: ok %v, want %v", si, win, n, gotOK, wantOK)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("sampler %d window %v n %d: states differ\n got %v\nwant %v", si, win, n, got, want)
				}
				if a != b {
					t.Fatalf("sampler %d window %v n %d: generator state differs afterwards", si, win, n)
				}
				if !gotOK && b != mcrand.New(seed) {
					t.Fatalf("sampler %d window %v n %d: a window outside the lifetime consumed draws", si, win, n)
				}
			}
		}
	}
}
