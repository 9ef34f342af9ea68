// Package mcrand supplies the pseudo-randomness of the Monte-Carlo hot
// path: a tiny, inlineable splitmix64 generator and the seed-derivation
// helpers that define the repository's determinism contract.
//
// The contract has two halves, and both live here so they cannot drift
// apart:
//
//   - SubSeed(seed, key) derives the deterministic sub-stream seed for
//     one unit of independent work. The sharded executor keys it by
//     object ID (which is what makes S-shard results byte-identical to
//     1-shard results: an object's sampled trajectories depend only on
//     the request seed and its own ID), and the single-engine sampler
//     keys it by worker index (which is what makes parallel queries
//     reproducible for a fixed seed and parallelism).
//   - RNG is the generator every sub-stream runs on. It is a plain
//     2-word value with no interface indirection, so Uint64 inlines
//     into the sampling loop — unlike math/rand.Rand, whose Source
//     calls and mutex-free-but-fat state made it the last allocation
//     and call overhead left in the world-sampling kernel.
//
// splitmix64 (Steele, Lea, Flood: "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014) passes BigCrush, has a full 2^64 period,
// and costs one multiply-xor-shift chain per output.
package mcrand

// RNG is a splitmix64 pseudo-random generator. The zero value is a
// valid generator seeded with 0; use New to seed it explicitly. RNG is
// a value type: copy it to fork the current position, take a pointer
// to advance it. It is not safe for concurrent use — give each
// goroutine its own (that is the point of SubSeed).
type RNG struct {
	state uint64
}

// New returns a generator whose stream is fully determined by seed.
func New(seed int64) RNG {
	return RNG{state: uint64(seed)}
}

// Golden is the splitmix64 increment. The generator is a counter: its
// state advances by Golden per draw, so the i-th draw (i >= 1) after a
// position s is Mix64(s + i·Golden). Kernels that need many draws in a
// fixed order can therefore compute any of them in place from Counter
// and then Skip past all of them.
const Golden = 0x9e3779b97f4a7c15

// Uint64 advances the generator and returns the next 64 uniformly
// distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += Golden
	return Mix64(r.state)
}

// Counter returns the generator's current position: the next Uint64
// call returns Mix64(Counter() + Golden).
func (r *RNG) Counter() uint64 { return r.state }

// Skip advances the generator past n draws without computing them, as
// n Uint64 calls would.
func (r *RNG) Skip(n int) { r.state += uint64(n) * Golden }

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed,
// bijective 64-bit mixer. It doubles as the repository's stable hash
// for routing (shard assignment) and seed derivation.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SubSeed derives the seed of one deterministic sub-stream of a
// request-level seed. key identifies the unit of independent work: the
// object ID in the sharded scatter path (so draws are independent of
// partition layout) and the worker index in the single-engine parallel
// sampler (so draws are independent of scheduling). The derivation is
// stable across processes and releases short of an explicit
// determinism break — sampled worlds for a given (seed, key) are part
// of the system's observable behavior.
func SubSeed(seed int64, key int) int64 {
	return SubSeed64(seed, uint64(key))
}

// SubSeed64 is SubSeed for full-width keys (e.g. a 64-bit group-key
// hash): converting such a key through int would truncate it on 32-bit
// platforms and silently break the cross-process stability promise.
// For keys that round-trip int — every small ID and worker index —
// SubSeed and SubSeed64 agree bit for bit.
func SubSeed64(seed int64, key uint64) int64 {
	return int64(Mix64(uint64(seed) ^ Mix64(key+Golden)))
}
