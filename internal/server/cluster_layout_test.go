package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/datagen"
	"pnn/internal/ring"
)

// TestForAllSamplingLayoutIndependent pins two fixed-budget ∀ requests
// whose sampling block used to depend on the object layout: with
// per-shard pruning, a layout that kept a hopeless ∀ candidate drew the
// full 10000-world budget while another drew none. After the exact
// refinement every layout refines to the same empty candidate set and
// answers exactly — 0 worlds, error bound 0 — with the same refined
// influencer count, on 1, 2 and 4 shards and through a router over two
// ring-sliced peers. The dataset is pnnserve's default one, restricted
// to the objects alive in either window: no other object can enter the
// filter or the refinement of these requests, so the answers are those
// of the whole dataset.
func TestForAllSamplingLayoutIndependent(t *testing.T) {
	const samples = 10000
	type request struct {
		state, ts, te int
		seed          uint64
		influencers   int
	}
	requests := []request{
		{state: 1070, ts: 746, te: 755, seed: 6899678719084377341, influencers: 8},
		{state: 180, ts: 267, te: 276, seed: 1988030252299001639, influencers: 7},
	}
	net, db, err := pnn.SyntheticDataset(10000, 8, 1000, 100, 1000, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := datagen.Synthetic(datagen.SyntheticConfig{
		States: 10000, Branching: 8, Objects: 1000, Lifetime: 100, Horizon: 1000,
		ObsInterval: 10, Lag: 0.5, SelfWeight: 0.5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	alive := map[int]bool{}
	for _, o := range ds.Objects {
		for _, r := range requests {
			if o.First().T <= r.te && o.Last().T >= r.ts {
				alive[o.ID] = true
			}
		}
	}
	db.Retain(func(id int) bool { return alive[id] })
	targets := map[string]string{}
	for _, shards := range []int{1, 2, 4} {
		proc, err := db.BuildSharded(samples, shards)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(New(net, proc, Config{}))
		t.Cleanup(srv.Close)
		targets[fmt.Sprintf("%d shards", shards)] = srv.URL
	}
	names := []string{"a", "b"}
	rg, err := ring.New(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	var peers []cluster.Peer
	for _, name := range names {
		pdb := *db
		pdb.Retain(func(id int) bool { return rg.OwnerID(id) == name })
		proc, err := pdb.BuildSharded(samples, 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(New(net, proc, Config{Role: RolePeer}))
		t.Cleanup(srv.Close)
		peers = append(peers, cluster.Peer{Name: name, URL: srv.URL})
	}
	coord, err := cluster.NewCoordinator(net, cluster.Config{Peers: peers, Timeout: 10 * time.Second, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseSubscriptions)
	router := httptest.NewServer(New(net, coord, Config{Role: RoleRouter}))
	t.Cleanup(router.Close)
	targets["router over 2 peers"] = router.URL

	for _, tc := range requests {
		body := fmt.Sprintf(`{"query": {"state": %d}, "window": {"ts": %d, "te": %d}, "tau": 0.1, "seed": %d}`,
			tc.state, tc.ts, tc.te, tc.seed)
		for name, url := range targets {
			code, raw := post(t, url+"/v1/forallnn", body)
			if code != http.StatusOK {
				t.Fatalf("state %d on %s: HTTP %d: %s", tc.state, name, code, raw)
			}
			var qr QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			want := SamplingJSON{}
			if qr.Sampling != want || len(qr.Results) != 0 {
				t.Errorf("state %d on %s: sampling %+v, %d results; want an exact empty answer with no worlds drawn",
					tc.state, name, qr.Sampling, len(qr.Results))
			}
			if qr.Stats.Influencers != tc.influencers || qr.Stats.Candidates != 0 {
				t.Errorf("state %d on %s: %d influencers and %d candidates after refinement, want %d and 0",
					tc.state, name, qr.Stats.Influencers, qr.Stats.Candidates, tc.influencers)
			}
		}
	}
}
