package nn

import (
	"math"
	"math/rand"
	"testing"

	"pnn/internal/geo"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// fillFromPaths writes the paths of one world into the batch's state
// columns the way the sampling kernel does: -1 outside a path's span.
func fillFromPaths(b *WorldBatch, w int, paths []uncertain.Path) {
	for oi, p := range paths {
		col := b.States(oi, w)
		for t := b.Ts; t <= b.Te; t++ {
			if s, ok := p.At(t); ok {
				col[t-b.Ts] = int32(s)
			} else {
				col[t-b.Ts] = -1
			}
		}
	}
}

// TestBatchMatchesWorld is the batch's correctness anchor: every
// predicate over a WorldBatch must agree with the reference World
// built from the same paths, across random worlds, windows and k.
func TestBatchMatchesWorld(t *testing.T) {
	sp, err := space.Line(30)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const nObj, nW = 5, 16
	q := func(ti int) geo.Point { return sp.Point(10 + ti%3) }

	var b WorldBatch
	for trial := 0; trial < 20; trial++ {
		ts := rng.Intn(5)
		te := ts + 1 + rng.Intn(6)
		nT := te - ts + 1
		worlds := make([][]uncertain.Path, nW)
		b.Reset(nObj, nW, ts, te)
		for w := 0; w < nW; w++ {
			paths := make([]uncertain.Path, nObj)
			for oi := range paths {
				// Random span, possibly missing the window entirely.
				start := ts - 2 + rng.Intn(5)
				n := rng.Intn(nT + 3)
				states := make([]int32, n)
				for i := range states {
					states[i] = int32(rng.Intn(sp.Len()))
				}
				paths[oi] = uncertain.Path{Start: start, States: states}
			}
			worlds[w] = paths
			fillFromPaths(&b, w, paths)
		}
		b.ComputeDistances(sp, q)

		refMask := make([]bool, nT)
		var fold KthScratch
		for w := 0; w < nW; w++ {
			ref := NewWorld(sp, worlds[w], q, ts, te)
			for oi := 0; oi < nObj; oi++ {
				for tt := ts; tt <= te; tt++ {
					bd, rd := b.Dist(w, oi, tt), ref.Dist(oi, tt)
					if bd != rd && !(math.IsInf(bd, 1) && math.IsInf(rd, 1)) {
						t.Fatalf("trial %d world %d: Dist(%d,%d) = %v, want %v", trial, w, oi, tt, bd, rd)
					}
				}
			}
			for k := 1; k <= nObj+1; k++ {
				kth := b.KthDists(w, k, &fold)
				for oi := 0; oi < nObj; oi++ {
					ref.KNNMask(oi, k, refMask)
					for ti, want := range refMask {
						if got := InKNN(b.Dist(w, oi, ts+ti), kth[ti]); got != want {
							t.Fatalf("trial %d world %d: InKNN(%d, t=%d, k=%d) = %v, want IsKNNAt %v", trial, w, oi, ts+ti, k, got, want)
						}
					}
				}
			}
		}
	}
}

// TestKthDistsMatchesIsKNNAt is the fold's property test: on random
// rows dense with ties (distances drawn from a handful of values) and
// +Inf dead slots, for k in {1, 2, 3}, k up to the row length and k
// beyond it,
// "d finite and d <= k-th smallest" must equal the reference predicate
// "alive with fewer than k others strictly closer" for every object.
func TestKthDistsMatchesIsKNNAt(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inf := math.Inf(1)
	levels := []float64{0, 1, 1.5, 2, inf}
	for trial := 0; trial < 500; trial++ {
		nObj := 1 + rng.Intn(24)
		nT := 1 + rng.Intn(4)
		b := WorldBatch{Ts: 3, Te: 3 + nT - 1, nObj: nObj, nW: 1, nT: nT,
			dist: make([]float64, nT*nObj)}
		ref := &World{Ts: b.Ts, Te: b.Te, dist: make([][]float64, nT)}
		for ti := 0; ti < nT; ti++ {
			row := b.dist[ti*nObj : (ti+1)*nObj]
			for oi := range row {
				row[oi] = levels[rng.Intn(len(levels))]
			}
			ref.dist[ti] = row
		}
		var fold KthScratch
		for _, k := range []int{1, 2, 3, nObj, nObj + 1, nObj + 5, 20} {
			kth := b.KthDists(0, k, &fold)
			for ti := 0; ti < nT; ti++ {
				for oi := 0; oi < nObj; oi++ {
					got := InKNN(b.Dist(0, oi, b.Ts+ti), kth[ti])
					if want := ref.IsKNNAt(oi, b.Ts+ti, k); got != want {
						t.Fatalf("trial %d k %d row %v: object %d InKNN %v, IsKNNAt %v (kth %v)",
							trial, k, ref.dist[ti], oi, got, want, kth[ti])
					}
				}
			}
		}
	}
}

// TestKthDistsHugeKAllocatesNothing pins the fold's memory bound: k
// arrives from the client unchecked above 1, so a k far beyond the row
// length must answer all +Inf without sizing anything by k, and a warm
// scratch must make every later call allocation-free.
func TestKthDistsHugeKAllocatesNothing(t *testing.T) {
	const nObj, nT = 5, 3
	b := WorldBatch{Ts: 0, Te: nT - 1, nObj: nObj, nW: 1, nT: nT,
		dist: make([]float64, nT*nObj)}
	for i := range b.dist {
		b.dist[i] = float64(i % 4)
	}
	var fold KthScratch
	for _, k := range []int{1 << 40, 1<<62 + 1} {
		for ti, d := range b.KthDists(0, k, &fold) {
			if !math.IsInf(d, 1) {
				t.Fatalf("k=%d: kth[%d] = %v, want +Inf", k, ti, d)
			}
		}
	}
	if cap(fold.buf) > nObj {
		t.Fatalf("k-smallest buffer grew to %d, want at most %d objects", cap(fold.buf), nObj)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range []int{1, 2, nObj, 1 << 40} {
			b.KthDists(0, k, &fold)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm KthDists allocates %v times per run, want 0", allocs)
	}
}

// TestBatchResetReuse pins the zero-allocation contract: once grown, a
// batch reshaped to an equal-or-smaller geometry must not allocate.
func TestBatchResetReuse(t *testing.T) {
	var b WorldBatch
	b.Reset(8, 64, 0, 9)
	big := cap(b.states)
	allocs := testing.AllocsPerRun(100, func() {
		b.Reset(4, 32, 2, 7)
		b.Reset(8, 64, 0, 9)
	})
	if allocs != 0 {
		t.Errorf("Reset to covered geometry allocated %v times per run", allocs)
	}
	if cap(b.states) != big {
		t.Errorf("Reset replaced a sufficient buffer")
	}
}

// TestBatchRangeComputation checks that disjoint ComputeDistancesRange
// calls compose to the full matrix.
func TestBatchRangeComputation(t *testing.T) {
	sp, err := space.Line(20)
	if err != nil {
		t.Fatal(err)
	}
	q := func(int) geo.Point { return sp.Point(3) }
	rng := rand.New(rand.NewSource(9))
	var whole, parts WorldBatch
	const nObj, nW = 3, 10
	whole.Reset(nObj, nW, 0, 4)
	parts.Reset(nObj, nW, 0, 4)
	for w := 0; w < nW; w++ {
		for oi := 0; oi < nObj; oi++ {
			col := whole.States(oi, w)
			pcol := parts.States(oi, w)
			for i := range col {
				s := int32(rng.Intn(sp.Len()))
				if rng.Intn(5) == 0 {
					s = -1
				}
				col[i], pcol[i] = s, s
			}
		}
	}
	whole.ComputeDistances(sp, q)
	parts.PrepareQuery(q)
	parts.ComputeDistancesRange(sp, 0, 4)
	parts.ComputeDistancesRange(sp, 4, nW)
	for w := 0; w < nW; w++ {
		for oi := 0; oi < nObj; oi++ {
			for tt := 0; tt <= 4; tt++ {
				a, b2 := whole.Dist(w, oi, tt), parts.Dist(w, oi, tt)
				if a != b2 && !(math.IsInf(a, 1) && math.IsInf(b2, 1)) {
					t.Fatalf("range fill differs at w=%d oi=%d t=%d: %v vs %v", w, oi, tt, a, b2)
				}
			}
		}
	}
}
