package pnn

import (
	"hash/fnv"

	"pnn/internal/mcrand"
	"pnn/internal/query"
	"pnn/internal/shard"
	"pnn/internal/space"
	"pnn/internal/uncertain"
)

// VersionInfo identifies the snapshot state a response answered from.
// Vector holds one version per shard (ascending shard index; in cluster
// mode, the peers' vectors concatenated in peer order) and Max the
// composite version: 1 at build plus one per accepted write. Max is
// layout-independent — the same write sequence yields the same Max
// whatever the shard or peer count — while the vector's shape reveals
// the layout and lets a reader detect a torn gather (two sub-answers
// from different versions).
type VersionInfo struct {
	Vector []int64
	Max    int64
}

// versionOf snapshots the version identity every response carries.
func versionOf(snap *shard.Snap) VersionInfo {
	return VersionInfo{Vector: snap.ShardVersions(), Max: snap.Version}
}

// NormalizeRequest validates req exactly like the one-shot, batch and
// standing paths (same k defaulting, same error messages) and returns
// the shared-world group spec plus the request's member item — the spec
// every Front path hands its View.
func NormalizeRequest(req Request) (shard.GroupSpec, shard.GroupItem, error) {
	k, op, err := normalizeRequest(req)
	if err != nil {
		return shard.GroupSpec{}, shard.GroupItem{}, err
	}
	spec := shard.GroupSpec{
		Q: req.Query, Ts: req.Ts, Te: req.Te, K: k, Seed: req.Seed, Conf: req.Confidence,
		MinWorlds: req.MinWorlds,
	}
	return spec, shard.GroupItem{Op: op, Tau: req.Tau}, nil
}

// ShareGroup returns the world-sharing coalescing key of req and the
// group seed it draws under sharedSeed: the key and seed RunBatchStats
// groups by, so a coordinator batching over remote peers forms the
// same groups with the same worlds as a single process would.
func ShareGroup(sharedSeed int64, req Request) (key string, seed int64, err error) {
	k, _, err := normalizeRequest(req)
	if err != nil {
		return "", 0, err
	}
	key = groupKey(req.Query, req.Ts, req.Te, k, req.Confidence, req.MinWorlds)
	h := fnv.New64a()
	h.Write([]byte(key))
	return key, mcrand.SubSeed64(sharedSeed, h.Sum64()), nil
}

// ResponseFromAnswer converts one shard-level group answer plus its raw
// stats into a facade Response, zeroing the per-response SamplerBuilds
// as batches do (one-shot and standing answers restore it). Version and
// WorldFloor are left for the caller, who knows the view and the
// floor the group ran with.
func ResponseFromAnswer(op shard.GroupOp, a shard.GroupAnswer, raw query.Stats) Response {
	resp := Response{Err: a.Err}
	if a.Err == nil {
		switch op {
		case shard.OpCNN:
			resp.Intervals = convertIntervals(a.Intervals)
		default:
			resp.Results = convertResults(a.Results)
		}
	}
	resp.Stats = convStats(raw)
	resp.Stats.SamplerBuilds = 0
	return resp
}

// ShardSet exposes the processor's underlying shard set — the handle a
// peer's /internal RPC surface scatters from and a coordinator's ingest
// path writes through. It is an internal-package type: only code inside
// this module (the server and cluster layers) can do anything with it.
func (p *Processor) ShardSet() *shard.Set { return p.set }

// Space exposes the network's embedded state space, which the
// coordinator-side gather needs to compute distances without building
// an index of its own.
func (n *Network) Space() *space.Space { return n.sp }

// Retain drops every registered object whose ID fails keep, in place.
// It is the peer-startup filter of cluster mode: each peer loads the
// shared dataset, then retains only the IDs it owns on the consistent-
// hash ring before building its index.
func (db *DB) Retain(keep func(id int) bool) {
	var ids []int
	var objs []*uncertain.Object
	byID := make(map[int]int)
	for i, o := range db.objs {
		if !keep(db.ids[i]) {
			continue
		}
		byID[o.ID] = len(objs)
		ids = append(ids, db.ids[i])
		objs = append(objs, o)
	}
	db.ids, db.objs, db.byID = ids, objs, byID
}
