package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pnn"
	"pnn/internal/cluster"
	"pnn/internal/query"
	"pnn/internal/ring"
	"pnn/internal/server"
	"pnn/internal/shard"
)

// The read-mix dataset is pnnserve's default one: 10000 states,
// branching 8, 1000 objects of lifetime 100 over a 1000-tic horizon,
// observed every 10 tics, generator seed 1, 10000 worlds per query.
const (
	readStates   = 10000
	readObjects  = 1000
	readLifetime = 100
	readHorizon  = 1000
	readObsEvery = 10
	readSamples  = 10000
	readShards   = 2
	maxChecks    = 48 // checked answers per run; each costs one reference query
)

func readDataset(b *bench) (*pnn.Network, *pnn.DB, error) {
	net, db, err := pnn.SyntheticDataset(readStates, 8, readObjects, readLifetime, readHorizon, readObsEvery, 1)
	if err != nil {
		return nil, nil, err
	}
	b.facts["dataset"] = fmt.Sprintf("synthetic states=%d objects=%d lifetime=%d horizon=%d obs_every=%d gen_seed=1",
		readStates, readObjects, readLifetime, readHorizon, readObsEvery)
	b.facts["objects"] = db.Len()
	b.facts["sample_budget"] = readSamples
	b.facts["subscriptions"] = 0
	b.facts["durability"] = "volatile"
	return net, db, nil
}

// readRec is one phase's client-side record.
type readRec struct {
	mu          sync.Mutex
	read, batch samples // latency, ms
	bytes       samples // one-shot response bytes
	influencers samples
	candidates  samples
	worlds      samples
	early       int
	checks      []checkedRead
}

type checkedRead struct {
	op   readOp
	body []byte
}

// readPhase runs the closed-loop read clients until the phase ends and
// records the end-to-end metrics under the phase name. replay, when
// set, re-runs each answered one-shot through the deeper layers.
func readPhase(b *bench, phase, base string, net *pnn.Network, rec *readRec, replay func(readOp, int64)) {
	start := time.Now()
	until := start.Add(b.phase)
	var wg sync.WaitGroup
	gen := newReadGen(net, b.seed*7919+phaseSalt(phase))
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for n := int64(0); time.Now().Before(until); n++ {
				readOnce(b, c, gen.next(), int64(ci)<<40|n, rec, replay)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	reads, batches := rec.read.values(), rec.batch.values()
	b.add(phase, "read_ops_s", "1/s", float64(len(reads)+len(batches))/elapsed, len(reads)+len(batches))
	b.addLatency(phase, "read", reads)
	b.addLatency(phase, "batch", batches)
}

// phaseSalt gives the traced phase its own stream, so it does not
// replay the untraced phase's requests against a warmer cache.
func phaseSalt(phase string) int64 {
	if phase == "traced" {
		return 1 << 32
	}
	return 0
}

func readOnce(b *bench, c *client, op readOp, id int64, rec *readRec, replay func(readOp, int64)) {
	traced := b.tr.enabled()
	if traced {
		if op.kind == "batch" {
			b.tr.expect(batchKey(op.share), id)
			b.tr.expect(runKey(op.group), id)
		} else {
			b.tr.expect(runKey(op.reqs[0].Seed), id)
		}
	}
	b.attempted.Add(1)
	start := time.Now()
	status, body, d, err := c.post(op.path, op.body, id)
	if traced {
		name := spanClientRead
		if op.kind == "batch" {
			name = spanClientBatch
		}
		b.tr.record(name, "", id, start)
	}
	if err != nil || status != 200 {
		b.fail("%s %s: status %d err %v body %.200s", op.kind, op.path, status, err, body)
		return
	}
	if op.kind == "batch" {
		rec.batch.addDur(d)
	} else {
		var qr server.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			b.fail("%s: undecodable answer: %v", op.kind, err)
			return
		}
		rec.note(d, len(body), qr)
	}
	if op.check {
		rec.mu.Lock()
		if len(rec.checks) < maxChecks {
			rec.checks = append(rec.checks, checkedRead{op: op, body: body})
		}
		rec.mu.Unlock()
	}
	if replay != nil && op.kind != "batch" {
		replay(op, id)
	}
}

// replayRead re-runs one answered one-shot on the snapshot it ran
// against through the shard, ustree and query entry points. Read-only
// workloads never publish a snapshot, so the current one is it.
func replayRead(b *bench, snap *shard.Snap, op readOp, id int64) {
	spec, item, err := pnn.NormalizeRequest(op.reqs[0])
	if err != nil {
		b.fail("replay: %v", err)
		return
	}
	start := time.Now()
	if _, _, err := snap.RunShared(spec, []shard.GroupItem{item}); err != nil {
		b.fail("replay RunShared: %v", err)
	}
	b.tr.record(spanRunShared, "replay", id, start)
	for _, p := range snap.Parts {
		replayLookups(b, p.Engine, spec, id)
	}
}

// replayLookups replays one shard's prune and the sampler lookups of
// its influencers.
func replayLookups(b *bench, eng *query.Engine, spec shard.GroupSpec, id int64) {
	start := time.Now()
	pr, err := eng.PruneWindow(spec.Q, spec.Ts, spec.Te, spec.K)
	b.tr.record(spanPrune, spanRunShared, id, start)
	if err != nil {
		b.fail("replay PruneWindow: %v", err)
		return
	}
	for _, oi := range pr.Influencers {
		start = time.Now()
		_, built, err := eng.SamplerCached(oi)
		name := spanSamplerHit
		if built {
			name = spanAdapt
		}
		b.tr.record(name, spanRunShared, id, start)
		if err != nil {
			b.fail("replay SamplerCached: %v", err)
		}
	}
}

// note records one answered one-shot read.
func (rec *readRec) note(d time.Duration, bytes int, qr server.QueryResponse) {
	rec.read.addDur(d)
	rec.bytes.add(float64(bytes))
	rec.influencers.add(float64(qr.Stats.Influencers))
	rec.candidates.add(float64(qr.Stats.Candidates))
	rec.worlds.add(float64(qr.Sampling.SamplesDrawn))
	if qr.Sampling.EarlyStopped {
		rec.mu.Lock()
		rec.early++
		rec.mu.Unlock()
	}
}

// layerCounts adds the response-derived read facts of a phase.
func (rec *readRec) layerCounts(b *bench) {
	inf, cand, w := rec.influencers.values(), rec.candidates.values(), rec.worlds.values()
	b.layer["ustree.influencers_per_read"] = mean(inf)
	b.layer["ustree.candidates_per_read"] = mean(cand)
	b.layer["query.worlds_per_read"] = mean(w)
	b.layer["query.early_stop_share"] = ratio(float64(rec.early), float64(len(w)))
	b.layer["server.resp_kb_per_read"] = mean(rec.bytes.values()) / 1024
}

func leavesOf(snaps ...*shard.Snap) int {
	n := 0
	for _, s := range snaps {
		for _, p := range s.Parts {
			n += p.Engine.Tree().NumLeaves()
		}
	}
	return n
}

// ---- read-mix ----

type localRig struct {
	proc *pnn.Processor
	node *node
}

func (r *localRig) close() error {
	r.proc.CloseSubscriptions()
	return r.node.stop()
}

func setupReadMix(b *bench, net *pnn.Network, db *pnn.DB) (*localRig, error) {
	proc, err := db.BuildSharded(readSamples, readShards)
	if err != nil {
		return nil, err
	}
	proc.SetParallelism(1) // pnnserve: GOMAXPROCS / batch workers
	proc.SetSweepInterval(pnn.DefaultSweepInterval)
	if err := proc.PrepareAll(); err != nil {
		return nil, err
	}
	n, err := serve(front(b, net, proc, server.RoleStandalone))
	if err != nil {
		return nil, err
	}
	r := &localRig{proc: proc, node: n}
	c := newClient(n.url)
	defer c.close()
	if err := c.ready(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// timedSetups runs set-up setupReps times (once when traced, where
// setup_s is not reported), keeps the last rig and records the median.
func timedSetups[R interface{ close() error }](b *bench, setup func() (R, error)) (R, error) {
	reps := setupReps
	if b.traced {
		reps = 1
	}
	var (
		rig   R
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			if err := rig.close(); err != nil {
				return rig, err
			}
			release()
		}
		start := time.Now()
		r, err := setup()
		if err != nil {
			return rig, err
		}
		times = append(times, time.Since(start).Seconds())
		rig = r
	}
	b.add("untraced", "setup_s", "s", quantile(times, 0.5), len(times))
	return rig, nil
}

func runReadMix(b *bench) error {
	net, db, err := readDataset(b)
	if err != nil {
		return err
	}
	b.facts["topology"] = fmt.Sprintf("standalone, %d shards", readShards)
	rig, err := timedSetups(b, func() (*localRig, error) { return setupReadMix(b, net, db) })
	if err != nil {
		return err
	}
	defer rig.close()
	set := rig.proc.ShardSet()
	b.facts["ustree_leaves"] = leavesOf(set.Snapshot())

	rec := &readRec{}
	cs0 := rig.proc.CacheStats()
	readPhase(b, "untraced", rig.node.url, net, rec, nil)
	cs1 := rig.proc.CacheStats()
	b.add("untraced", "heap_mb", "MB", heapMB(), 1)

	var trec *readRec
	if b.traced {
		trec = &readRec{}
		b.tr.on.Store(true)
		readPhase(b, "traced", rig.node.url, net, trec, func(op readOp, id int64) {
			replayRead(b, set.Snapshot(), op, id)
		})
		b.tr.on.Store(false)
		trec.layerCounts(b)
		b.layer["ustree.leaves"] = float64(leavesOf(set.Snapshot()))
		b.layer["query.cache_hit_ratio"] = ratio(float64(cs1.Hits-cs0.Hits), float64(cs1.Hits-cs0.Hits+cs1.Builds-cs0.Builds))
		analyzeSpans(b)
	}

	// Correctness: the sampled HTTP answers must equal Processor.Run
	// (or RunBatchStats with the same sharing options) in-process on
	// the same, never-written snapshot.
	for _, r := range []*readRec{rec, trec} {
		if r == nil {
			continue
		}
		for _, ck := range r.checks {
			checkRead(b, ck, func(op readOp) []pnn.Response { return localAnswers(rig.proc, op) })
		}
	}
	return nil
}

// localAnswers answers a generated read in-process, the way the server
// must have.
func localAnswers(p *pnn.Processor, op readOp) []pnn.Response {
	if op.kind != "batch" {
		return []pnn.Response{p.Run(op.reqs[0])}
	}
	out, _ := p.RunBatchStats(op.reqs, pnn.BatchOptions{Workers: clients, ShareWorlds: true, SharedSeed: op.share})
	return out
}

// ---- cluster-read ----

var peerNames = []string{"a", "b"}

type clusterRig struct {
	coord  *cluster.Coordinator
	router *node
	peers  []*pnn.Processor
	nodes  []*node
}

func (r *clusterRig) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if r.coord != nil {
		r.coord.CloseSubscriptions() // also stops the health probe loop
	}
	if r.router != nil {
		keep(r.router.stop())
	}
	for i, n := range r.nodes {
		r.peers[i].CloseSubscriptions()
		keep(n.stop())
	}
	return first
}

// setupCluster boots what `pnnserve -role peer` does twice (each peer
// retains its ring slice before indexing, then warms its cache), and a
// router over them, all on loopback.
func setupCluster(b *bench, net *pnn.Network, db *pnn.DB) (*clusterRig, error) {
	rg, err := ring.New(peerNames, 0)
	if err != nil {
		return nil, err
	}
	r := &clusterRig{peers: make([]*pnn.Processor, len(peerNames))}
	errs := make([]error, len(peerNames))
	var wg sync.WaitGroup
	for i, name := range peerNames {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			pdb := *db
			pdb.Retain(func(id int) bool { return rg.OwnerID(id) == name })
			proc, err := pdb.BuildSharded(readSamples, 1)
			if err == nil {
				proc.SetParallelism(1)
				err = proc.PrepareAll()
			}
			r.peers[i], errs[i] = proc, err
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var cpeers []cluster.Peer
	for i, name := range peerNames {
		// Peers keep the bare *pnn.Processor backend: the /internal RPC
		// surface exists only for it.
		var h http.Handler = server.New(net, r.peers[i], serverConfig(server.RolePeer))
		if b.tr != nil {
			h = &peerHandler{h: h, tr: b.tr}
		}
		n, err := serve(h)
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
		cpeers = append(cpeers, cluster.Peer{Name: name, URL: n.url})
	}
	r.coord, err = cluster.NewCoordinator(net, cluster.Config{Peers: cpeers, Workers: 1})
	if err != nil {
		r.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.coord.Bootstrap(ctx); err != nil {
		r.close()
		return nil, err
	}
	r.coord.SetSweepInterval(pnn.DefaultSweepInterval)
	r.router, err = serve(front(b, net, r.coord, server.RoleRouter))
	if err != nil {
		r.close()
		return nil, err
	}
	c := newClient(r.router.url)
	defer c.close()
	if err := c.ready(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func runClusterRead(b *bench) error {
	net, db, err := readDataset(b)
	if err != nil {
		return err
	}
	b.facts["topology"] = fmt.Sprintf("router over %d in-process peers (1 shard each), ring vnodes %d", len(peerNames), ring.DefaultVirtualNodes)
	rig, err := timedSetups(b, func() (*clusterRig, error) { return setupCluster(b, net, db) })
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			rig.close()
		}
	}()
	snaps := func() []*shard.Snap {
		out := make([]*shard.Snap, len(rig.peers))
		for i, p := range rig.peers {
			out[i] = p.ShardSet().Snapshot()
		}
		return out
	}
	cache := func() query.CacheStats {
		var cs query.CacheStats
		for _, p := range rig.peers {
			c := p.CacheStats()
			cs.Builds += c.Builds
			cs.Hits += c.Hits
		}
		return cs
	}
	b.facts["ustree_leaves"] = leavesOf(snaps()...)

	rec := &readRec{}
	cs0 := cache()
	readPhase(b, "untraced", rig.router.url, net, rec, nil)
	cs1 := cache()
	b.add("untraced", "heap_mb", "MB", heapMB(), 1)

	var trec *readRec
	if b.traced {
		trec = &readRec{}
		b.tr.on.Store(true)
		readPhase(b, "traced", rig.router.url, net, trec, nil)
		b.tr.on.Store(false)
		trec.layerCounts(b)
		b.layer["ustree.leaves"] = float64(leavesOf(snaps()...))
		b.layer["query.cache_hit_ratio"] = ratio(float64(cs1.Hits-cs0.Hits), float64(cs1.Hits-cs0.Hits+cs1.Builds-cs0.Builds))
		analyzeSpans(b)
	}

	// Correctness: the sampled router answers must equal a
	// single-process 2-shard reference at the same seeds, modulo the
	// layout diagnostics (candidates, influencers, sampler builds and
	// the version vector's shape). The reference is built only after
	// the cluster is gone, outside setup_s and the heap figure.
	closed = true
	if err := rig.close(); err != nil {
		return err
	}
	release()
	ref, err := db.BuildSharded(readSamples, readShards)
	if err != nil {
		return err
	}
	ref.SetParallelism(1)
	for _, r := range []*readRec{rec, trec} {
		if r == nil {
			continue
		}
		for _, ck := range r.checks {
			checkRead(b, ck, func(op readOp) []pnn.Response { return localAnswers(ref, op) })
		}
	}
	return nil
}
