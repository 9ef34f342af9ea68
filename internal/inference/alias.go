package inference

import "math"

// Walker alias tables for O(1) categorical draws in the sampling hot
// path. The cumulative-row representation the Sampler used previously
// costs a binary search per transition; the alias method (Walker 1977,
// with Vose's O(n) construction) answers every draw with one table
// lookup and one comparison, which is what makes drawing tens of
// thousands of possible worlds per query allocation- and search-free.

// aliasEntry is one slot of a fused Walker alias table, 16 bytes, aligned
// entry-for-entry with a timestep's adj CSR arrays: slot k describes the
// k-th stored transition. A draw u picks slot lo+⌊hi32(u)·n/2³²⌋ of the
// current row and keeps it iff uint32(u) < thr, else jumps to alias.
// The kept slot's nextLo/nextN are the row span of its destination state
// in the FOLLOWING timestep's table, so one walk step is one dependent
// load of one entry — no row offsets, no binary search. nextN == 0 marks
// a destination with no successor row (only legal at the model's last
// transition, where nextLo is -1).
type aliasEntry struct {
	thr    uint32 // keep the slot iff uint32(u) < thr
	alias  int32  // replacement slot (global index into the same table)
	nextLo int32  // first slot of the destination's row in the next table
	nextN  int32  // length of that row; 0 when no row follows
}

// pick resolves one 64-bit draw against the row [lo, lo+n) of a fused
// table: the high 32 bits choose a slot by fixed-point scaling, the low
// 32 bits decide between the slot and its alias.
func pick(ents []aliasEntry, lo, n int32, u uint64) int32 {
	k := lo + int32(((u>>32)*uint64(n))>>32)
	if uint32(u) >= ents[k].thr {
		k = ents[k].alias
	}
	return k
}

// buildStepTable constructs the fused alias table of every row of a.
// sc must currently index the FOLLOWING timestep's matrix next (see
// aliasScratch.index; nil at the model's last transition), so every
// destination resolves to its successor row span in O(1) — the build
// stays linear in the number of stored transitions.
func buildStepTable(a, next *adj, sc *aliasScratch) []aliasEntry {
	ents := make([]aliasEntry, len(a.p))
	for r := 0; r+1 < len(a.off); r++ {
		lo, hi := int(a.off[r]), int(a.off[r+1])
		buildAliasRange(a.p[lo:hi], ents[lo:hi], int32(lo), sc)
	}
	for k, d := range a.dst {
		ents[k].nextLo, ents[k].nextN = rowSpan(next, sc.lookup(d))
	}
	return ents
}

// rowSpan returns the slot range of row `row` of a, or (-1, 0) when
// row is -1 (no successor row).
func rowSpan(a *adj, row int32) (lo, n int32) {
	if row < 0 {
		return -1, 0
	}
	return a.off[row], a.off[row+1] - a.off[row]
}

// entryDist is the posterior marginal at one timestep in both draw
// forms: cumulative (the math/rand path) and fused alias (the columnar
// mcrand kernel). ents[k].nextLo/nextN is the row span of states[k] in
// the transition table leaving this timestep ((-1, 0) at the model end,
// where no transition follows), so a walk enters its first step exactly
// as it leaves every later one.
type entryDist struct {
	states []int32
	cum    []float64 // strictly increasing, last element ~1
	ents   []aliasEntry
}

// aliasScratch holds the work lists of Vose's construction plus a
// state → row scatter index, all reused across the rows and timesteps
// of one NewSampler call.
type aliasScratch struct {
	scaled       []float64
	small, large []int32
	// rowOf[s] is the row index of state s in the currently indexed
	// matrix, -1 elsewhere; touched remembers which slots to clear.
	// The dense-by-state layout trades one transient |S|-bounded slice
	// for O(1) lookups, removing every binary search from the build.
	rowOf   []int32
	touched []int32
}

// index points the scratch's state → row lookup at matrix a (nil
// de-indexes), clearing only the slots the previous matrix touched.
func (sc *aliasScratch) index(a *adj) {
	for _, s := range sc.touched {
		sc.rowOf[s] = -1
	}
	sc.touched = sc.touched[:0]
	if a == nil || len(a.src) == 0 {
		return
	}
	if need := int(a.src[len(a.src)-1]) + 1; len(sc.rowOf) < need {
		grown := make([]int32, need)
		copy(grown, sc.rowOf)
		for i := len(sc.rowOf); i < need; i++ {
			grown[i] = -1
		}
		sc.rowOf = grown
	}
	for r, s := range a.src {
		sc.rowOf[s] = int32(r)
		sc.touched = append(sc.touched, s)
	}
}

// lookup returns the row index of state s in the indexed matrix, -1
// when absent (or when nothing is indexed).
func (sc *aliasScratch) lookup(s int32) int32 {
	if int(s) >= len(sc.rowOf) {
		return -1
	}
	return sc.rowOf[s]
}

// buildAliasRange fills the thresholds and aliases of ents (the local
// slots of one row) from the weight vector w using Vose's O(n)
// algorithm. base is added to the stored alias indices so they are
// global into the table, letting the draw skip the lo+ offset addition.
// Weights need not be normalized; zero-weight slots become pure alias
// slots.
func buildAliasRange(w []float64, ents []aliasEntry, base int32, sc *aliasScratch) {
	n := len(w)
	if n == 0 {
		return
	}
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		// Degenerate row: make every slot accept itself uniformly.
		for i := range ents {
			ents[i].set(1, base+int32(i), base+int32(i))
		}
		return
	}
	sc.scaled = sc.scaled[:0]
	sc.small = sc.small[:0]
	sc.large = sc.large[:0]
	inv := float64(n) / total
	for i, x := range w {
		s := x * inv
		sc.scaled = append(sc.scaled, s)
		if s < 1 {
			sc.small = append(sc.small, int32(i))
		} else {
			sc.large = append(sc.large, int32(i))
		}
	}
	for len(sc.small) > 0 && len(sc.large) > 0 {
		s := sc.small[len(sc.small)-1]
		sc.small = sc.small[:len(sc.small)-1]
		l := sc.large[len(sc.large)-1]
		ents[s].set(sc.scaled[s], base+l, base+s)
		sc.scaled[l] -= 1 - sc.scaled[s]
		if sc.scaled[l] < 1 {
			sc.large = sc.large[:len(sc.large)-1]
			sc.small = append(sc.small, l)
		}
	}
	// Leftovers on either list are numerically ~1: accept outright.
	for _, i := range sc.large {
		ents[i].set(1, base+i, base+i)
	}
	for _, i := range sc.small {
		ents[i].set(1, base+i, base+i)
	}
}

// set stores a Walker slot — acceptance probability prob, replacement
// slot alias — at global index self in fused form. For the low 32 bits
// x of a draw, the Walker test "redirect iff x·2⁻³² ≥ prob" is exactly
// x ≥ ⌈prob·2³²⌉ (x is an integer and scaling by 2³² is exact), which
// is what keeps fused draws byte-identical to float ones. A threshold
// of 2³² or more (prob ≈ 1, or NaN, where the float test never
// redirects) does not fit in 32 bits, so the slot becomes its own
// alias: x = 2³²−1 then "redirects" to itself.
func (e *aliasEntry) set(prob float64, alias, self int32) {
	c := math.Ceil(prob * (1 << 32))
	switch {
	case c <= 0:
		e.thr, e.alias = 0, alias
	case c < 1<<32:
		e.thr, e.alias = uint32(c), alias
	default:
		e.thr, e.alias = math.MaxUint32, self
	}
}
