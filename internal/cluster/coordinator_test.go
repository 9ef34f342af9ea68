package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pnn"
	"pnn/internal/shard"
)

// fakePeer is an httptest peer answering /internal/ingest and
// /internal/touch from scripted handlers.
func fakePeer(t *testing.T, ingest, touch http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	if ingest != nil {
		mux.HandleFunc("/internal/ingest", ingest)
	}
	if touch != nil {
		mux.HandleFunc("/internal/touch", touch)
	}
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	var env ErrorJSON
	env.Error.Code, env.Error.Message = code, msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(env)
}

func oneObs() []pnn.Observation { return []pnn.Observation{{T: 0, State: 1}} }

// TestIngestErrorsKeepFacadeSentinels: a peer's structured write
// rejections reach the caller under the facade's sentinels with the
// peer's message, exactly like a local write's errors.
func TestIngestErrorsKeepFacadeSentinels(t *testing.T) {
	srv := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		var req IngestRPCRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		switch req.ID {
		case 1:
			writeError(w, http.StatusConflict, "duplicate_object", "object 1 already indexed")
		case 2:
			writeError(w, http.StatusNotFound, "unknown_object", "object 2 is not indexed")
		case 3:
			writeError(w, http.StatusBadRequest, "invalid_observation", "state out of range")
		case 4:
			w.WriteHeader(http.StatusInternalServerError)
		default:
			json.NewEncoder(w).Encode(IngestRPCResponse{Version: 2, Versions: []int64{2}, Objects: 7})
		}
	}, nil)
	net, err := pnn.NewGridNetwork(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(net, Config{Peers: []Peer{{Name: "a", URL: srv.URL}}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.CloseSubscriptions)

	_, err = c.AddObject(1, oneObs())
	if !errors.Is(err, pnn.ErrDuplicateID) || err.Error() != "object 1 already indexed" {
		t.Errorf("duplicate add: err = %v, want ErrDuplicateID with the peer's message", err)
	}
	_, err = c.Observe(2, oneObs()...)
	if !errors.Is(err, pnn.ErrUnknownID) || err.Error() != "object 2 is not indexed" {
		t.Errorf("unknown observe: err = %v, want ErrUnknownID with the peer's message", err)
	}
	_, err = c.AddObject(3, oneObs())
	if err == nil || errors.Is(err, pnn.ErrDuplicateID) || errors.Is(err, pnn.ErrUnknownID) || errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("invalid add: err = %v, want a plain rejection", err)
	}
	if _, err = c.AddObject(4, oneObs()); !errors.Is(err, ErrPeerUnavailable) {
		t.Errorf("add on a failing peer: err = %v, want ErrPeerUnavailable", err)
	}
	ing, err := c.AddObject(5, oneObs())
	if err != nil || ing != (pnn.Ingest{Version: 2, Objects: 7}) {
		t.Errorf("accepted add = %+v, %v; want the peer's published state", ing, err)
	}
}

// TestTouchFailureIsConservative: the routed write's touch predicate
// forwards the owner's verdict, and answers "touched" when the RPC
// fails — a spurious re-evaluation, never a missed one.
func TestTouchFailureIsConservative(t *testing.T) {
	var fail atomic.Bool
	var got TouchRequest
	srv := fakePeer(t, nil, func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Error(err)
		}
		json.NewEncoder(w).Encode(TouchResponse{Touched: false})
	})
	touch := touchVia(context.Background(), newPeerClient("a", srv.URL, 5*time.Second, time.Second), 7)
	q := pnn.AtPoint(pnn.Point{X: 0.25, Y: 0.5})
	bound := []float64{0.5, math.Inf(1), 0.25}

	if touch(q, 2, 4, bound) {
		t.Error("peer answered untouched, predicate says touched")
	}
	if got.ID != 7 || got.Ts != 2 || got.Te != 4 || len(got.Query.Points) != 3 || got.Query.Points[1] != (PointJSON{X: 0.25, Y: 0.5}) {
		t.Errorf("touch RPC carried %+v, want object 7's region over [2, 4]", got)
	}
	if len(got.Bound) != 3 || got.Bound[1] != nil || *got.Bound[0] != 0.5 {
		t.Errorf("touch RPC bound = %v, want 0.5, unconstrained, 0.25", got.Bound)
	}
	fail.Store(true)
	if !touch(q, 2, 4, bound) {
		t.Error("failing touch RPC must count as touched")
	}
	srv.Close()
	if !touch(q, 2, 4, bound) {
		t.Error("unreachable owner must count as touched")
	}
}

// TestVersionFromParts: the merged vector concatenates the peers'
// vectors in order, and the composite is Σ peer versions − (P−1), which
// equals Σ vector − (N−1) over all N shards: one per build plus one per
// accepted write, whatever the layout.
func TestVersionFromParts(t *testing.T) {
	a := &shard.ScatterResult{Version: 3, Versions: []int64{2, 2}} // 2 shards, 2 writes
	b := &shard.ScatterResult{Version: 1, Versions: []int64{1}}    // 1 shard, no writes
	c := &shard.ScatterResult{Version: 5, Versions: []int64{5}}    // 1 shard, 4 writes
	for _, tc := range []struct {
		parts []*shard.ScatterResult
		want  pnn.VersionInfo
	}{
		{[]*shard.ScatterResult{a}, pnn.VersionInfo{Vector: []int64{2, 2}, Max: 3}},
		{[]*shard.ScatterResult{a, b}, pnn.VersionInfo{Vector: []int64{2, 2, 1}, Max: 3}},
		{[]*shard.ScatterResult{a, b, c}, pnn.VersionInfo{Vector: []int64{2, 2, 1, 5}, Max: 7}},
	} {
		if got := versionFromParts(tc.parts); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%d peers: merged %+v, want %+v", len(tc.parts), got, tc.want)
		}
	}
}
