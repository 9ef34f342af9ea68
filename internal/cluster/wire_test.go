package cluster

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"pnn/internal/shard"
)

// wireScatter is a two-row scatter over a three-timestep window: the
// second row is dead at the first timestep (+Inf bounds) and the
// pruning thresholds include an unconstrained (+Inf) entry.
func wireScatter() *shard.ScatterResult {
	inf := math.Inf(1)
	return &shard.ScatterResult{
		Version:  3,
		Versions: []int64{2, 3},
		Samples:  2,
		Worlds:   2,
		Rows: []shard.ScatterRow{
			{ID: 7, States: []int32{1, 2, 3, 4, 5, 6}, DMin: []float64{0.25, 0.5, 0}, DMax: []float64{0.75, 1.5, 0.125}},
			{ID: 9, States: []int32{-1, 8, 9, -1, 8, 8}, DMin: []float64{inf, 0.1, 0.2}, DMax: []float64{inf, 0.3, 1e-300}},
		},
		CandIDs:       []int{7},
		PruneDist:     []float64{1, inf, 0.5},
		SamplerBuilds: 1,
		AdaptTime:     42 * time.Microsecond,
	}
}

// TestScatterWireRoundTrip checks that a scatter result, distance
// bounds and dead timesteps included, survives ScatterToWire, JSON
// encoding and ScatterFromWire unchanged, and that dead timesteps
// travel as null.
func TestScatterWireRoundTrip(t *testing.T) {
	want := wireScatter()
	raw, err := json.Marshal(ScatterToWire(want))
	if err != nil {
		t.Fatal(err)
	}
	var resp ScatterResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows[1].DMin[0] != nil || resp.Rows[1].DMax[0] != nil {
		t.Errorf("dead timestep encoded as %v/%v, want null", resp.Rows[1].DMin[0], resp.Rows[1].DMax[0])
	}
	got, err := ScatterFromWire(&resp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the scatter:\n sent: %+v\n  got: %+v", want, got)
	}
}

// TestScatterFromWireRejectsBadBounds checks that rows whose distance
// bounds are missing or do not span the window fail with a *WireError
// naming the row and field — never a panic and never a silently
// accepted row.
func TestScatterFromWireRejectsBadBounds(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(r *ScatterRowJSON)
		field string
	}{
		{"missing dmin", func(r *ScatterRowJSON) { r.DMin = nil }, "dmin"},
		{"missing dmax", func(r *ScatterRowJSON) { r.DMax = nil }, "dmax"},
		{"short dmin", func(r *ScatterRowJSON) { r.DMin = r.DMin[:2] }, "dmin"},
		{"long dmax", func(r *ScatterRowJSON) { r.DMax = append(r.DMax, r.DMax[0]) }, "dmax"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := ScatterToWire(wireScatter())
			tc.edit(&resp.Rows[1])
			res, err := ScatterFromWire(&resp, 3)
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("got result %v, error %v; want a *WireError", res, err)
			}
			if we.Row != 1 || we.ID != 9 || we.Field != tc.field {
				t.Errorf("error names row %d object %d field %q, want row 1 object 9 field %q", we.Row, we.ID, we.Field, tc.field)
			}
		})
	}
	// A window of another length than the peer drew for is a mismatch
	// on every row.
	resp := ScatterToWire(wireScatter())
	if _, err := ScatterFromWire(&resp, 4); !errors.As(err, new(*WireError)) {
		t.Errorf("window length mismatch: error %v, want a *WireError", err)
	}
}
