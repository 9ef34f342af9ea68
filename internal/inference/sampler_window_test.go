package inference

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/mcrand"
	"pnn/internal/sparse"
	"pnn/internal/uncertain"
)

// windowSampler adapts a line object alive over [2, 10] with a middle
// observation, the fixture of the window edge-case tests.
func windowSampler(t *testing.T) (*Sampler, *uncertain.Object) {
	t.Helper()
	o := lineObject(t, 15, 1, []uncertain.Observation{
		{T: 2, State: 7}, {T: 6, State: 9}, {T: 10, State: 5},
	})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	return NewSampler(m), o
}

func TestSampleWindowSingleInstant(t *testing.T) {
	s, _ := windowSampler(t)
	rng := rand.New(rand.NewSource(3))
	for _, ts := range []int{2, 5, 10} {
		p, ok := s.SampleWindow(rng, ts, ts)
		if !ok {
			t.Fatalf("ts == te == %d inside the lifetime must sample", ts)
		}
		if p.Start != ts || len(p.States) != 1 {
			t.Fatalf("ts == te == %d: got Start=%d, %d states", ts, p.Start, len(p.States))
		}
		if post := s.Model().Posterior(ts); post[int(p.States[0])] <= 0 {
			t.Fatalf("t=%d: sampled state %d has zero posterior mass", ts, p.States[0])
		}
	}
}

func TestSampleWindowIntoSingleInstant(t *testing.T) {
	s, _ := windowSampler(t)
	rng := mcrand.New(3)
	dst := make([]int32, 1)
	for _, ts := range []int{2, 6, 10} {
		if !s.SampleWindowInto(&rng, ts, ts, dst) {
			t.Fatalf("ts == te == %d inside the lifetime must sample", ts)
		}
		if post := s.Model().Posterior(ts); post[int(dst[0])] <= 0 {
			t.Fatalf("t=%d: sampled state %d has zero posterior mass", ts, dst[0])
		}
	}
	// At an observation the draw is forced.
	if !s.SampleWindowInto(&rng, 6, 6, dst) || dst[0] != 9 {
		t.Fatalf("window at observation t=6: got state %d, want 9", dst[0])
	}
}

func TestSampleWindowOutsideLifetime(t *testing.T) {
	s, _ := windowSampler(t)
	rng := rand.New(rand.NewSource(5))
	for _, w := range [][2]int{{0, 1}, {11, 20}, {-5, -1}} {
		if _, ok := s.SampleWindow(rng, w[0], w[1]); ok {
			t.Errorf("window [%d, %d] outside lifetime [2, 10] must not sample", w[0], w[1])
		}
	}
	mrng := mcrand.New(5)
	dst := make([]int32, 8)
	for _, w := range [][2]int{{11, 18}, {-6, 1}} {
		for i := range dst {
			dst[i] = 99 // poison: Into must overwrite every slot
		}
		if s.SampleWindowInto(&mrng, w[0], w[1], dst) {
			t.Errorf("window [%d, %d] outside lifetime [2, 10] must not sample", w[0], w[1])
		}
		for i, v := range dst {
			if v != -1 {
				t.Fatalf("window [%d, %d]: dst[%d] = %d, want -1", w[0], w[1], i, v)
			}
		}
	}
}

func TestSampleWindowIntoClipsToLifetime(t *testing.T) {
	s, o := windowSampler(t)
	rng := mcrand.New(11)
	const ts, te = 0, 13
	dst := make([]int32, te-ts+1)
	for trial := 0; trial < 200; trial++ {
		if !s.SampleWindowInto(&rng, ts, te, dst) {
			t.Fatal("overlapping window must sample")
		}
		for tt := ts; tt <= te; tt++ {
			v := dst[tt-ts]
			if tt < o.First().T || tt > o.Last().T {
				if v != -1 {
					t.Fatalf("t=%d outside lifetime: state %d, want -1", tt, v)
				}
				continue
			}
			if v < 0 {
				t.Fatalf("t=%d inside lifetime: dead slot", tt)
			}
			if post := s.Model().Posterior(tt); post[int(v)] <= 0 {
				t.Fatalf("t=%d: state %d has zero posterior mass", tt, v)
			}
		}
		// Transitions must stay chain-adjacent on the line.
		for tt := o.First().T; tt < o.Last().T; tt++ {
			if d := dst[tt+1-ts] - dst[tt-ts]; d < -1 || d > 1 {
				t.Fatalf("illegal transition %d→%d at t=%d", dst[tt-ts], dst[tt+1-ts], tt)
			}
		}
	}
}

// TestSampleWindowIntoMatchesPosterior checks that the alias-table
// entry draw and O(1) transition draws realize the same law as the
// posterior marginals, i.e. the columnar path is statistically
// equivalent to the cumulative one.
func TestSampleWindowIntoMatchesPosterior(t *testing.T) {
	s, _ := windowSampler(t)
	rng := mcrand.New(17)
	const ts, te = 3, 9
	const n = 60000
	dst := make([]int32, te-ts+1)
	counts := make([]sparse.Vec, te-ts+1)
	for i := range counts {
		counts[i] = sparse.NewVec()
	}
	for i := 0; i < n; i++ {
		if !s.SampleWindowInto(&rng, ts, te, dst) {
			t.Fatal("window inside lifetime must sample")
		}
		for tt := ts; tt <= te; tt++ {
			counts[tt-ts].Add(int(dst[tt-ts]), 1.0/n)
		}
	}
	for tt := ts; tt <= te; tt++ {
		if !counts[tt-ts].Equal(s.Model().Posterior(tt), 0.01) {
			t.Errorf("t=%d: empirical %v vs posterior %v", tt, counts[tt-ts], s.Model().Posterior(tt))
		}
	}
}

// TestSampleWindowIntoDeterministic pins the kernel's reproducibility:
// the same seed yields byte-identical state columns.
func TestSampleWindowIntoDeterministic(t *testing.T) {
	s, _ := windowSampler(t)
	a, b := mcrand.New(23), mcrand.New(23)
	da, db := make([]int32, 9), make([]int32, 9)
	for i := 0; i < 100; i++ {
		s.SampleWindowInto(&a, 2, 10, da)
		s.SampleWindowInto(&b, 2, 10, db)
		for k := range da {
			if da[k] != db[k] {
				t.Fatalf("draw %d slot %d: %d vs %d", i, k, da[k], db[k])
			}
		}
	}
}

// TestSamplerSingleObservationModel pins the degenerate model whose
// lifetime is one instant: no transition matrices exist, so every
// sampling path must answer from the entry distribution alone.
func TestSamplerSingleObservationModel(t *testing.T) {
	o := lineObject(t, 5, 1, []uncertain.Observation{{T: 3, State: 2}})
	m, err := Adapt(o)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(1))
	if p := s.Sample(rng); p.Start != 3 || len(p.States) != 1 || p.States[0] != 2 {
		t.Errorf("Sample = %+v, want the single observed instant", p)
	}
	if p, ok := s.SampleWindow(rng, 0, 10); !ok || len(p.States) != 1 || p.States[0] != 2 {
		t.Errorf("SampleWindow = %+v, %v", p, ok)
	}
	mrng := mcrand.New(1)
	dst := []int32{99, 99, 99}
	if !s.SampleWindowInto(&mrng, 2, 4, dst) {
		t.Fatal("window covering the instant must sample")
	}
	if dst[0] != -1 || dst[1] != 2 || dst[2] != -1 {
		t.Errorf("dst = %v, want [-1 2 -1]", dst)
	}
}

// TestCumDistDrawClamp exercises the floating-point-overshoot clamp of
// the cumulative entry draw: a u at or beyond the final cumulative
// value — possible when fraction×total rounds up — must clamp to the
// last slot instead of indexing one past the end, mirroring the
// long-standing transition-step clamp.
func TestCumDistDrawClamp(t *testing.T) {
	cd := entryDist{
		states: []int32{4, 7, 9},
		cum:    []float64{0.25, 0.5, 0.999999999999}, // FP shortfall: mass ~1 but < 1
	}
	last := cd.cum[len(cd.cum)-1]
	for _, u := range []float64{
		last,                    // exactly the final cumulative value
		math.Nextafter(last, 2), // one ulp beyond it
		last * (1 + 1e-12),      // relative overshoot
		1.0,                     // the "true" total the row should have had
	} {
		if k := cd.drawAt(u); k != len(cd.cum)-1 {
			t.Errorf("drawAt(%v) = slot %d, want clamp to last slot %d", u, k, len(cd.cum)-1)
		}
	}
	// Sanity: interior draws are unaffected by the clamp.
	if k := cd.drawAt(0); k != 0 {
		t.Errorf("drawAt(0) = %d, want 0", k)
	}
	if k := cd.drawAt(0.3); k != 1 {
		t.Errorf("drawAt(0.3) = %d, want 1", k)
	}
	// And the rand.Rand entry path composes draw over drawAt without
	// ever leaving the support.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if k := cd.drawCum(rng); k < 0 || k >= len(cd.states) {
			t.Fatalf("draw returned out-of-range slot %d", k)
		}
	}
}
