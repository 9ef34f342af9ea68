package query

import (
	"math/rand"
	"testing"
)

// naiveSupport is the reference support count of the lattice walk: the
// number of worlds whose mask row li holds at every offset of items.
func naiveSupport(masks [][]bool, li, nT int, items []int) int {
	count := 0
	for _, row := range masks {
		ok := true
		for _, k := range items {
			if !row[li*nT+k] {
				ok = false
				break
			}
		}
		if ok {
			count++
		}
	}
	return count
}

// TestBitsetSupportMatchesNaiveScan pins the bitset support count of
// MineTimeSets against the per-world rescan it replaced, at world
// counts around the 64-bit word boundaries (0, 1, 63, 64, 65) and at a
// realistic budget (10000), for random masks of several densities and
// random item sets on a row that is not the first.
func TestBitsetSupportMatchesNaiveScan(t *testing.T) {
	const rows, nT, li = 3, 6, 1
	rng := rand.New(rand.NewSource(5))
	for _, worlds := range []int{0, 1, 63, 64, 65, 10000} {
		for _, density := range []float64{0.1, 0.5, 0.95} {
			masks := make([][]bool, worlds)
			for w := range masks {
				masks[w] = make([]bool, rows*nT)
				for i := range masks[w] {
					masks[w][i] = rng.Float64() < density
				}
			}
			sets := worldBitsets(masks, li, nT)
			for trial := 0; trial < 40; trial++ {
				var items []int
				for k := 0; k < nT; k++ {
					if rng.Intn(2) == 0 {
						items = append(items, k)
					}
				}
				if len(items) == 0 {
					items = []int{rng.Intn(nT)}
				}
				if got, want := supportCount(sets, items), naiveSupport(masks, li, nT, items); got != want {
					t.Fatalf("worlds %d density %v items %v: bitset support %d, naive %d", worlds, density, items, got, want)
				}
			}
		}
	}
}

// TestMineTimeSetsNoWorlds pins the degenerate zero-world input: every
// support is 0/0 (NaN), which never reaches tau, so nothing qualifies.
func TestMineTimeSetsNoWorlds(t *testing.T) {
	sets, qualifying, err := MineTimeSets(nil, 0, 4, 0.1)
	if err != nil || len(sets) != 0 || qualifying != 0 {
		t.Fatalf("MineTimeSets(no worlds) = %v, %d, %v; want nothing", sets, qualifying, err)
	}
}
