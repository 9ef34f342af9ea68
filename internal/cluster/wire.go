// Package cluster implements the multi-node scatter-gather deployment
// of the PNN engine: a Coordinator that owns consistent-hash object
// routing for ingest and fans query work out to shard peers over the
// /internal HTTP/JSON RPC surface, gathering merged answers that are
// byte-identical to the single-process shard.Set path at the same
// snapshot versions and seed.
//
// The determinism contract rests on the shard package's replay design:
// each peer prunes its own UST-trees, adapts samplers, and pre-draws
// every influencer's possible-world state columns from the private
// (request seed, object ID) generator; the coordinator merges the rows
// with shard.MergeScatters and replays them through shard.Gather, the
// very executor a single process evaluates with. Distances, evaluator
// counts, and the adaptive early-stop point follow from the columns
// alone, so the network boundary adds no numeric drift.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pnn/internal/shard"
)

// PointJSON is a planar position on the wire.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// QueryJSON carries a query reference as its positions over the query
// window: Points[i] is the reference position at time Start+i. Both
// fixed and moving references reduce to this — pruning and evaluation
// only ever read the position inside the window, and Go's JSON float64
// encoding round-trips exactly, so the peer reconstructs the positions
// bit-identically.
type QueryJSON struct {
	Start  int         `json:"start"`
	Points []PointJSON `json:"points"`
}

// ConfidenceJSON mirrors query.Confidence on the internal wire.
type ConfidenceJSON struct {
	Eps        float64 `json:"eps,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	MaxSamples int     `json:"max_samples,omitempty"`
}

// ScatterRequest is the body of POST /internal/scatter: one shared-
// world group spec, query encoded as window positions.
type ScatterRequest struct {
	Query      QueryJSON       `json:"query"`
	Ts         int             `json:"ts"`
	Te         int             `json:"te"`
	K          int             `json:"k"`
	Seed       int64           `json:"seed"`
	Confidence *ConfidenceJSON `json:"confidence,omitempty"`
}

// ScatterRowJSON is one influencer row on the wire. States is the
// little-endian int32 encoding of the row's pre-drawn state columns
// (Worlds consecutive windows of Te-Ts+1 states, -1 marking dead
// timesteps); JSON carries it base64-encoded. DMin and DMax are the
// row's exact per-timestep distance bounds (Te-Ts+1 entries each), with
// null for the +Inf of a dead timestep, as in PruneDist.
type ScatterRowJSON struct {
	ID     int        `json:"id"`
	States []byte     `json:"states"`
	DMin   []*float64 `json:"dmin"`
	DMax   []*float64 `json:"dmax"`
}

// ScatterResponse is the peer's answer: its shard.ScatterResult in
// wire form. PruneDist uses null for +Inf (JSON has no infinities).
type ScatterResponse struct {
	Version       int64            `json:"version"`
	Versions      []int64          `json:"versions"`
	Samples       int              `json:"samples"`
	Worlds        int              `json:"worlds"`
	Rows          []ScatterRowJSON `json:"rows"`
	CandIDs       []int            `json:"cand_ids,omitempty"`
	PruneDist     []*float64       `json:"prune_dist,omitempty"`
	SamplerBuilds int              `json:"sampler_builds"`
	AdaptNanos    int64            `json:"adapt_ns"`
}

// IngestRPCRequest is the body of POST /internal/ingest: a routed
// write. Kind is "add" (register a new object) or "observe" (append to
// an existing one). Observations are pre-validated by the coordinator
// against the shared network, so the peer only re-checks what the
// motion model itself enforces.
type IngestRPCRequest struct {
	Kind         string            `json:"kind"`
	ID           int               `json:"id"`
	Observations []ObservationJSON `json:"observations"`
}

// ObservationJSON is one certain (time, state) measurement.
type ObservationJSON struct {
	T     int `json:"t"`
	State int `json:"state"`
}

// IngestRPCResponse reports the peer's published snapshot after a
// routed write.
type IngestRPCResponse struct {
	Version  int64   `json:"version"`
	Versions []int64 `json:"versions"`
	Objects  int     `json:"objects"`
}

// TouchRequest is the body of POST /internal/touch: may the (already
// written) object with ID intersect the given influence region? The
// peer owning the object answers with its indexed rectangles.
type TouchRequest struct {
	ID    int        `json:"id"`
	Query QueryJSON  `json:"query"`
	Ts    int        `json:"ts"`
	Te    int        `json:"te"`
	Bound []*float64 `json:"bound,omitempty"`
}

// TouchResponse reports the touch verdict.
type TouchResponse struct {
	Touched bool `json:"touched"`
}

// HealthInfo is the body of GET /internal/health: the peer's live
// snapshot identity plus the static parameters the coordinator must
// see agree across the cluster.
type HealthInfo struct {
	Version     int64   `json:"version"`
	Versions    []int64 `json:"versions"`
	Objects     int     `json:"objects"`
	States      int     `json:"states"`
	Samples     int     `json:"samples"`
	CacheBuilds int64   `json:"cache_builds"`
	CacheHits   int64   `json:"cache_hits"`
	// Durability is the peer's persistence mode ("volatile", "wal",
	// "wal+fsync"), surfaced per peer on /v1/cluster so an operator can
	// spot a node accidentally running volatile in a durable cluster.
	Durability string `json:"durability"`
}

// ErrorJSON is the error envelope of every /internal RPC, mirroring
// the public API's shape so one client can decode both.
type ErrorJSON struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// StatesToWire encodes int32 state columns little-endian.
func StatesToWire(states []int32) []byte {
	out := make([]byte, 4*len(states))
	for i, s := range states {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(s))
	}
	return out
}

// StatesFromWire decodes little-endian int32 state columns.
func StatesFromWire(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// PruneToWire encodes a pruning threshold (or distance bound) vector,
// mapping +Inf (no constraint, or a dead timestep) to null.
func PruneToWire(dist []float64) []*float64 {
	out := make([]*float64, len(dist))
	for i, d := range dist {
		if !math.IsInf(d, 1) {
			v := d
			out[i] = &v
		}
	}
	return out
}

// PruneFromWire decodes a wire threshold (or distance bound) vector,
// mapping null back to +Inf.
func PruneFromWire(dist []*float64) []float64 {
	out := make([]float64, len(dist))
	for i, d := range dist {
		if d == nil {
			out[i] = math.Inf(1)
		} else {
			out[i] = *d
		}
	}
	return out
}

// ScatterToWire converts a peer-side scatter result to its wire form.
func ScatterToWire(res *shard.ScatterResult) ScatterResponse {
	out := ScatterResponse{
		Version:       res.Version,
		Versions:      res.Versions,
		Samples:       res.Samples,
		Worlds:        res.Worlds,
		Rows:          make([]ScatterRowJSON, len(res.Rows)),
		CandIDs:       res.CandIDs,
		PruneDist:     PruneToWire(res.PruneDist),
		SamplerBuilds: res.SamplerBuilds,
		AdaptNanos:    res.AdaptTime.Nanoseconds(),
	}
	for i, r := range res.Rows {
		out.Rows[i] = ScatterRowJSON{
			ID:     r.ID,
			States: StatesToWire(r.States),
			DMin:   PruneToWire(r.DMin),
			DMax:   PruneToWire(r.DMax),
		}
	}
	return out
}

// WireError reports a malformed row of a scatter response: the row's
// position and object ID, the offending field, and what is wrong with
// it. The coordinator treats it like any other peer failure — the
// gather fails, it never proceeds on a partial or guessed row.
type WireError struct {
	Row    int
	ID     int
	Field  string
	Reason string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("cluster: scatter row %d (object %d): %s: %s", e.Row, e.ID, e.Field, e.Reason)
}

// ScatterFromWire converts a wire scatter response back to the shard
// form the coordinator merges. nT is the window length Te-Ts+1 of the
// request; a row whose distance bounds are missing or do not hold
// exactly nT entries fails with a *WireError.
func ScatterFromWire(resp *ScatterResponse, nT int) (*shard.ScatterResult, error) {
	res := &shard.ScatterResult{
		Version:       resp.Version,
		Versions:      resp.Versions,
		Samples:       resp.Samples,
		Worlds:        resp.Worlds,
		Rows:          make([]shard.ScatterRow, len(resp.Rows)),
		CandIDs:       resp.CandIDs,
		PruneDist:     PruneFromWire(resp.PruneDist),
		SamplerBuilds: resp.SamplerBuilds,
	}
	res.AdaptTime = time.Duration(resp.AdaptNanos)
	for i, r := range resp.Rows {
		field, got := "dmin", len(r.DMin)
		if got == nT {
			field, got = "dmax", len(r.DMax)
		}
		if got != nT {
			return nil, &WireError{Row: i, ID: r.ID, Field: field,
				Reason: fmt.Sprintf("%d distance bounds, window has %d timesteps", got, nT)}
		}
		res.Rows[i] = shard.ScatterRow{
			ID:     r.ID,
			States: StatesFromWire(r.States),
			DMin:   PruneFromWire(r.DMin),
			DMax:   PruneFromWire(r.DMax),
		}
	}
	return res, nil
}
