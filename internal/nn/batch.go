package nn

import (
	"math"

	"pnn/internal/geo"
	"pnn/internal/space"
)

// WorldChunk is the number of possible worlds a batch holds at once —
// the chunking policy of every sampling kernel over WorldBatch (the
// single-engine counter and the sharded scatter-gather executor alike):
// large enough to amortize per-chunk bookkeeping, small enough that the
// state and distance buffers stay cache-resident and the memory
// high-water mark is independent of the sample budget.
const WorldChunk = 256

// WorldBatch is a chunk of possible worlds in columnar form: the states
// of every object in every world of the chunk live in one flat []int32,
// the distance matrix of every world in one flat []float64. It replaces
// per-world *World materialization in the Monte-Carlo hot path — where
// NewWorld allocates a [][]float64 per world, a batch's buffers are
// written in place and recycled across chunks (engines keep batches in
// a sync.Pool), so steady-state sampling allocates nothing.
//
// Layouts:
//
//   - states[(oi*nW + w)*nT + (t-Ts)] is the state of object oi at time
//     t in world w, or -1 when the object is dead at t. Object-major,
//     because the sampler fills one object's worlds consecutively from
//     that object's generator (the draw order the determinism contract
//     fixes).
//   - dist[((w*nT)+(t-Ts))*nObj + oi] is d(q(t), oi(t)) in world w, or
//     +Inf when dead. (world, time)-major, because every NN predicate
//     scans all objects at one (world, time) — the same row shape
//     World kept, now without the row allocations.
//
// A WorldBatch is not safe for concurrent mutation; the read-only
// predicate methods may be called from multiple goroutines once the
// distances are computed (the shard gather phase splits worlds across
// workers, each calling ComputeDistancesRange on its own world range
// first).
type WorldBatch struct {
	Ts, Te int

	nObj, nW, nT int
	states       []int32
	dist         []float64
	qpts         []geo.Point
}

// Reset shapes the batch for nObj objects × nW worlds over [ts, te],
// reusing the underlying buffers when they are large enough. Previous
// contents are overwritten lazily: every States column must be filled
// by the sampler and distances recomputed before evaluation.
func (b *WorldBatch) Reset(nObj, nW, ts, te int) {
	b.Ts, b.Te = ts, te
	b.nObj, b.nW, b.nT = nObj, nW, te-ts+1
	if n := nObj * nW * b.nT; cap(b.states) < n {
		b.states = make([]int32, n)
	} else {
		b.states = b.states[:n]
	}
	if n := b.nW * b.nT * nObj; cap(b.dist) < n {
		b.dist = make([]float64, n)
	} else {
		b.dist = b.dist[:n]
	}
	if cap(b.qpts) < b.nT {
		b.qpts = make([]geo.Point, b.nT)
	} else {
		b.qpts = b.qpts[:b.nT]
	}
}

// Worlds returns the number of worlds in the batch.
func (b *WorldBatch) Worlds() int { return b.nW }

// NumObjects returns the number of objects per world.
func (b *WorldBatch) NumObjects() int { return b.nObj }

// States returns the state column of object oi in world w: a slice of
// length Te-Ts+1 for the sampler to fill (states ascending by time;
// -1 marks timesteps where the object is dead).
func (b *WorldBatch) States(oi, w int) []int32 {
	base := (oi*b.nW + w) * b.nT
	return b.states[base : base+b.nT]
}

// Columns returns the state columns of object oi in every world of
// the batch: world w's column is Columns(oi)[w*nT : (w+1)*nT] with
// nT = Te-Ts+1, the world-major block the sampling kernel fills in one
// call.
func (b *WorldBatch) Columns(oi int) []int32 {
	return b.states[oi*b.nW*b.nT : (oi+1)*b.nW*b.nT]
}

// ComputeDistances fills the whole distance matrix from the state
// columns: dist = d(q(t), state) via sp, +Inf for dead slots.
func (b *WorldBatch) ComputeDistances(sp *space.Space, q func(int) geo.Point) {
	b.PrepareQuery(q)
	b.ComputeDistancesRange(sp, 0, b.nW)
}

// PrepareQuery caches the query position of every window timestep.
// Call it once per Reset before any ComputeDistancesRange — the range
// fills only read the cache, so disjoint ranges stay data-race-free.
func (b *WorldBatch) PrepareQuery(q func(int) geo.Point) {
	for ti := 0; ti < b.nT; ti++ {
		b.qpts[ti] = q(b.Ts + ti)
	}
}

// ComputeDistancesRange fills the distance rows of worlds [w0, w1).
// Disjoint ranges may be computed concurrently — the gather workers of
// a sharded query each materialize their own world range.
func (b *WorldBatch) ComputeDistancesRange(sp *space.Space, w0, w1 int) {
	pts := sp.Points()
	inf := math.Inf(1)
	for oi := 0; oi < b.nObj; oi++ {
		col := b.states[(oi*b.nW+w0)*b.nT : (oi*b.nW+w1)*b.nT]
		for w := w0; w < w1; w++ {
			rowBase := w * b.nT * b.nObj
			for ti := 0; ti < b.nT; ti++ {
				s := col[(w-w0)*b.nT+ti]
				if s < 0 {
					b.dist[rowBase+ti*b.nObj+oi] = inf
				} else {
					b.dist[rowBase+ti*b.nObj+oi] = pts[s].Dist(b.qpts[ti])
				}
			}
		}
	}
}

// row returns the distances of all objects at time t in world w.
func (b *WorldBatch) row(w, t int) []float64 {
	base := (w*b.nT + (t - b.Ts)) * b.nObj
	return b.dist[base : base+b.nObj]
}

// Dist returns d(q(t), oi(t)) in world w; +Inf when oi is dead at t.
func (b *WorldBatch) Dist(w, oi, t int) float64 { return b.row(w, t)[oi] }

// KthScratch is one worker's reusable fold buffers for KthDists: the
// per-timestep k-th distances of the last call and the k smallest
// distances seen so far in a row. Both grow to the batch shape on first
// use — the k-smallest buffer to min(k, objects), never to a
// client-chosen k — and are reused afterwards, so the fold allocates
// nothing per world.
type KthScratch struct {
	kth, buf []float64
}

// KthDists returns the k-th smallest distance of every timestep's row
// in world w (indexed t-Ts, valid until the next call with s) — +Inf
// when fewer than k objects are alive there. It is the O(objects) fold
// behind every k-NN predicate: object oi is among the k nearest at t —
// alive, with fewer than k others strictly closer (ties included, per
// Definition 1) — exactly when InKNN(Dist(w, oi, t), kth[t-Ts]) holds,
// because fewer than k distances lie strictly below d iff the k-th
// smallest is at least d. One pass per row replaces a rescan of the row
// per object.
func (b *WorldBatch) KthDists(w, k int, s *KthScratch) []float64 {
	if cap(s.kth) < b.nT {
		s.kth = make([]float64, b.nT)
	}
	kth := s.kth[:b.nT]
	if k > b.nObj {
		inf := math.Inf(1)
		for ti := range kth {
			kth[ti] = inf
		}
		return kth
	}
	if cap(s.buf) < k {
		s.buf = make([]float64, 0, k)
	}
	for ti := range kth {
		kth[ti] = kthSmallest(b.row(w, b.Ts+ti), k, s.buf)
	}
	return kth
}

// InKNN reports whether an object at distance d is among the k nearest
// of a row whose k-th smallest distance is kth (see KthDists): alive
// (finite d) and not beyond the k-th.
func InKNN(d, kth float64) bool { return d <= kth && !math.IsInf(d, 1) }

// kthSmallest returns the k-th smallest value of row (1 <= k <=
// len(row)), keeping the k smallest seen so far sorted in buf
// (capacity >= k).
func kthSmallest(row []float64, k int, buf []float64) float64 {
	if k == 1 {
		m := row[0]
		for _, d := range row[1:] {
			if d < m {
				m = d
			}
		}
		return m
	}
	buf = buf[:0]
	for _, d := range row {
		if len(buf) == k {
			if d >= buf[k-1] {
				continue
			}
			buf = buf[:k-1]
		}
		i := len(buf)
		buf = append(buf, d)
		for ; i > 0 && buf[i-1] > d; i-- {
			buf[i] = buf[i-1]
		}
		buf[i] = d
	}
	return buf[k-1]
}
