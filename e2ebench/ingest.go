package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pnn"
	"pnn/internal/query"
	"pnn/internal/server"
	"pnn/internal/shard"
	"pnn/internal/store"
	"pnn/internal/uncertain"
)

// The ingest-subscribed dataset: 300 objects alive together over a
// 100-tic horizon, observed every 5 tics (about 6000 leaf boxes), plus
// a pool of movers parked at one central state. Standing queries sit at
// the ten states nearest to it, so every write lands in every shape's
// influence region.
const (
	ingStates    = 2500
	ingObjects   = 300
	ingLifetime  = 100
	ingHorizon   = 100
	ingObsEvery  = 5
	ingSamples   = 150
	ingShapes    = 10
	ingSubs      = 1000 // poll subscriptions, 100 per shape, never drained
	ingMovers    = 20   // movers in the generated DB
	moverFirstID = 1_000_000
	moverStartT  = 38 // a mover's i-th observation is at moverStartT + 2i
	moverMaxObs  = 12 // observations per mover, so per-write cost cannot drift
	addEvery     = 10 // every tenth write adds a mover, so each run has the same share
	spillEvery   = 2 * time.Second
	winTs, winTe = 40, 60
)

type ingestData struct {
	net    *pnn.Network
	db     *pnn.DB
	center int
	shapes []int
}

func ingestDataset(b *bench) (*ingestData, error) {
	net, db, err := pnn.SyntheticDataset(ingStates, 8, ingObjects, ingLifetime, ingHorizon, ingObsEvery, 1)
	if err != nil {
		return nil, err
	}
	d := &ingestData{net: net, db: db}
	// The center is the state nearest the centroid; the shapes are the
	// ten states nearest the center.
	var cx, cy float64
	for s := 0; s < ingStates; s++ {
		p := net.StatePoint(s)
		cx, cy = cx+p.X, cy+p.Y
	}
	d.center = net.NearestState(pnn.Point{X: cx / ingStates, Y: cy / ingStates})
	c := net.StatePoint(d.center)
	order := make([]int, 0, ingStates-1)
	for s := 0; s < ingStates; s++ {
		if s != d.center {
			order = append(order, s)
		}
	}
	dist := func(s int) float64 { p := net.StatePoint(s); return math.Hypot(p.X-c.X, p.Y-c.Y) }
	sort.SliceStable(order, func(i, j int) bool { return dist(order[i]) < dist(order[j]) })
	d.shapes = order[:ingShapes]
	for i := 0; i < ingMovers; i++ {
		if err := db.Add(moverFirstID+i, moverObs(d.center, 0, 2)); err != nil {
			return nil, err
		}
	}
	b.facts["dataset"] = fmt.Sprintf("synthetic states=%d objects=%d lifetime=%d horizon=%d obs_every=%d gen_seed=1, +%d movers at state %d",
		ingStates, ingObjects, ingLifetime, ingHorizon, ingObsEvery, ingMovers, d.center)
	b.facts["objects"] = db.Len()
	b.facts["sample_budget"] = ingSamples
	b.facts["subscriptions"] = fmt.Sprintf("%d poll over %d shapes + 1 SSE", ingSubs, ingShapes)
	b.facts["durability"] = fmt.Sprintf("wal, fsync off, spill every %v", spillEvery)
	b.facts["topology"] = "standalone, 1 shard"
	return d, nil
}

// moverObs returns observations from..to-1 of a mover parked at state.
func moverObs(state, from, to int) []pnn.Observation {
	var obs []pnn.Observation
	for i := from; i < to; i++ {
		obs = append(obs, pnn.Observation{T: moverStartT + 2*i, State: state})
	}
	return obs
}

// shapeSpec is the standing query (and the one-shot read) of shape j:
// an adaptive ∃NN over [winTs, winTe].
func (d *ingestData) shapeSpec(j int, seed int64) (server.QuerySpec, pnn.Request) {
	st := d.shapes[j]
	spec := server.QuerySpec{Query: &server.QueryRef{State: &st}, Window: &server.Window{Ts: winTs, Te: winTe},
		Tau: readTau, Seed: seed, Confidence: &server.ConfidenceJSON{Eps: adaptiveEps}}
	req := pnn.Request{Semantics: pnn.Exists, Query: pnn.AtState(d.net, st), Ts: winTs, Te: winTe,
		Tau: readTau, Seed: seed, Confidence: pnn.Confidence{Eps: adaptiveEps}}
	return spec, req
}

func shapeSeed(j int) int64 { return int64(1000 + j) }

// watcher consumes the watched subscription's SSE stream.
type watcher struct {
	mu     sync.Mutex
	events []watchedEvent
	first  chan struct{}
	done   chan struct{}
}

type watchedEvent struct {
	at time.Time
	ev server.SubEventJSON
}

func watch(base string, body []byte) (*watcher, error) {
	resp, err := http.Post(base+"/v1/subscribe", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	w := &watcher{first: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		once := sync.Once{}
		for sc.Scan() {
			data, ok := strings.CutPrefix(sc.Text(), "data: ")
			if !ok {
				continue
			}
			var ev server.SubEventJSON
			if json.Unmarshal([]byte(data), &ev) != nil || ev.Event != "answer" {
				continue
			}
			w.mu.Lock()
			w.events = append(w.events, watchedEvent{at: time.Now(), ev: ev})
			w.mu.Unlock()
			once.Do(func() { close(w.first) })
		}
	}()
	return w, nil
}

func (w *watcher) snapshot() []watchedEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]watchedEvent(nil), w.events...)
}

type ingestRig struct {
	proc  *pnn.Processor
	node  *node
	dir   string
	watch *watcher
}

func (r *ingestRig) close() error {
	r.proc.CloseSubscriptions()
	err := r.node.stop()
	if r.watch != nil {
		<-r.watch.done
	}
	if cerr := r.proc.Close(); cerr != nil && err == nil {
		err = cerr
	}
	os.RemoveAll(r.dir)
	return err
}

func setupIngest(b *bench, d *ingestData, rep int) (*ingestRig, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("ingest-%d", rep))
	os.RemoveAll(dir)
	proc, _, err := d.db.BuildShardedDurable(ingSamples, 1, pnn.Durability{Dir: dir, Fsync: false, SpillInterval: spillEvery})
	if err != nil {
		return nil, err
	}
	proc.SetParallelism(1)
	proc.SetSweepInterval(pnn.DefaultSweepInterval)
	if err := proc.PrepareAll(); err != nil {
		proc.Close()
		return nil, err
	}
	n, err := serve(front(b, d.net, proc, server.RoleStandalone))
	if err != nil {
		proc.Close()
		return nil, err
	}
	r := &ingestRig{proc: proc, node: n, dir: dir}
	c := newClient(n.url)
	defer c.close()
	if err := c.ready(); err != nil {
		r.close()
		return nil, err
	}
	for i := 0; i < ingSubs; i++ {
		j := i % ingShapes
		spec, _ := d.shapeSpec(j, shapeSeed(j))
		body := mustJSON(server.SubscriptionSpec{Semantics: string(pnn.Exists), QuerySpec: spec,
			Delivery: &server.DeliveryJSON{Transport: server.TransportPoll}})
		status, raw, _, err := c.post("/v1/subscribe", body, -1)
		if err != nil || status != http.StatusOK {
			r.close()
			return nil, fmt.Errorf("subscribe %d: status %d err %v %s", i, status, err, raw)
		}
	}
	spec, _ := d.shapeSpec(0, shapeSeed(0))
	r.watch, err = watch(n.url, mustJSON(server.SubscriptionSpec{Semantics: string(pnn.Exists), QuerySpec: spec}))
	if err != nil {
		r.close()
		return nil, err
	}
	select {
	case <-r.watch.first:
	case <-time.After(60 * time.Second):
		r.close()
		return nil, fmt.Errorf("watched subscription never delivered its first answer")
	}
	if !proc.WaitSubscriptionsIdle(60 * time.Second) {
		r.close()
		return nil, fmt.Errorf("initial subscription evaluations did not drain")
	}
	return r, nil
}

// writer is the single closed-loop client: it alternates a write with
// an adaptive one-shot read. Writes follow a fixed pattern; each read's
// shape and seed come from the benchmark seed's stream.
type writer struct {
	b      *bench
	d      *ingestData
	rig    *ingestRig
	c      *client
	rng    *rand.Rand
	movers []mover // observable movers, in round-robin order
	next   int     // round-robin cursor
	nextID int
	n      int64
	writes int

	lastAck int64
	acks    map[int64]time.Time
	snaps   map[int64]*shard.Snap // published snapshots by version, for the post-run check

	// traced-phase replay state
	reach *uncertain.Reach
	wal   *store.WAL
}

type mover struct{ id, obs int }

type ingestRec struct {
	reads    readRec
	write    samples
	walBytes samples
}

func newWriter(b *bench, d *ingestData, rig *ingestRig) *writer {
	w := &writer{b: b, d: d, rig: rig, c: newClient(rig.node.url),
		rng:    rand.New(rand.NewSource(b.seed*7919 + 17)),
		nextID: moverFirstID + ingMovers, acks: map[int64]time.Time{}, snaps: map[int64]*shard.Snap{},
		reach: uncertain.NewReach()}
	for i := 0; i < ingMovers; i++ {
		w.movers = append(w.movers, mover{id: moverFirstID + i, obs: 2})
	}
	snap := rig.proc.ShardSet().Snapshot()
	w.lastAck = snap.Version
	w.snaps[snap.Version] = snap
	return w
}

func (w *writer) phase(name string, rec *ingestRec, traced bool) {
	b := w.b
	start := time.Now()
	until := start.Add(b.phase)
	for time.Now().Before(until) {
		w.writeOnce(rec, traced)
		w.readOnce(rec, traced)
	}
	elapsed := time.Since(start).Seconds()
	reads, writes := rec.reads.read.values(), rec.write.values()
	b.add(name, "read_ops_s", "1/s", float64(len(reads))/elapsed, len(reads))
	b.addLatency(name, "read", reads)
	b.add(name, "write_ops_s", "1/s", float64(len(writes))/elapsed, len(writes))
	b.addLatency(name, "write", writes)
}

func (w *writer) writeOnce(rec *ingestRec, traced bool) {
	b := w.b
	id := int64(1)<<41 | w.n
	w.n++
	w.writes++
	var (
		path string
		req  server.IngestRequest
		obs  []pnn.Observation
	)
	if w.writes%addEvery == 0 || len(w.movers) == 0 {
		path = "/v1/objects"
		obs = moverObs(w.d.center, 0, 2)
		req.ID = w.nextID
		w.nextID++
		w.movers = append(w.movers, mover{id: req.ID, obs: 2})
	} else {
		path = "/v1/observe"
		w.next %= len(w.movers)
		m := &w.movers[w.next]
		obs = moverObs(w.d.center, m.obs, m.obs+1)
		req.ID = m.id
		if m.obs++; m.obs >= moverMaxObs {
			w.movers = append(w.movers[:w.next], w.movers[w.next+1:]...)
		} else {
			w.next++
		}
	}
	for _, o := range obs {
		req.Observations = append(req.Observations, server.ObservationJSON{T: o.T, State: o.State})
	}
	pre := w.rig.proc.ShardSet().Snapshot()
	walBefore := w.rig.proc.DurabilityStatus().WALBytesSinceSpill
	if traced {
		b.tr.expect(writeKey(req.ID, obs[0].T), id)
	}
	b.attempted.Add(1)
	start := time.Now()
	status, body, d, err := w.c.post(path, mustJSON(req), id)
	if traced {
		b.tr.record(spanClientWrite, "", id, start)
	}
	if err != nil || status != http.StatusOK {
		b.fail("write %s id %d: status %d err %v body %.200s", path, req.ID, status, err, body)
		return
	}
	ackAt := time.Now()
	var ing server.IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		b.fail("write %s: undecodable ack: %v", path, err)
		return
	}
	if ing.Version <= w.lastAck {
		b.fail("write %s id %d acked version %d, not above the previous ack %d", path, req.ID, ing.Version, w.lastAck)
	}
	w.lastAck = ing.Version
	w.acks[ing.Version] = ackAt
	post := w.rig.proc.ShardSet().Snapshot()
	w.snaps[post.Version] = post
	delete(w.snaps, post.Version-4) // the watched stream's last event reports one of the newest versions
	rec.write.addDur(d)
	if after := w.rig.proc.DurabilityStatus().WALBytesSinceSpill; after > walBefore {
		rec.walBytes.add(float64(after - walBefore))
	}
	if traced {
		w.replayWrite(id, path, req.ID, obs, pre, post, ing.Version)
	}
}

// replayWrite re-runs the acknowledged write's deeper steps outside the
// serving path: the index update on the pre-write tree, the WAL append
// to a scratch log, and the written object's model adaptation on an
// engine derived from the published one (the cost a cache-cold read or
// sweep pays).
func (w *writer) replayWrite(id int64, path string, objID int, obs []pnn.Observation, pre, post *shard.Snap, version int64) {
	b := w.b
	conv := make([]uncertain.Observation, len(obs))
	for i, o := range obs {
		conv[i] = uncertain.Observation{T: o.T, State: o.State}
	}
	op := store.OpAdd
	if path == "/v1/observe" {
		op = store.OpObserve
		if si, oi, ok := pre.Locate(objID); ok {
			tree := pre.Parts[si].Engine.Tree()
			old := tree.Objects()[oi]
			upd, err := uncertain.NewObject(objID, append(append([]uncertain.Observation(nil), old.Obs...), conv...), old.Chain)
			if err != nil {
				b.fail("replay update: %v", err)
				return
			}
			start := time.Now()
			if _, err := tree.WithUpdatedObject(oi, upd, w.reach); err != nil {
				b.fail("replay WithUpdatedObject: %v", err)
			}
			b.tr.record(spanUpdate, "replay", id, start)
		}
	}
	start := time.Now()
	if _, err := w.wal.Append(store.WALRecord{Version: version, Op: op, ID: objID, Obs: conv}); err != nil {
		b.fail("replay WAL append: %v", err)
	}
	b.tr.record(spanWALAppend, "replay", id, start)
	if si, oi, ok := post.Locate(objID); ok {
		eng := post.Parts[si].Engine
		cold := query.NewEngineFrom(eng, eng.Tree(), []int{oi})
		start := time.Now()
		_, built, err := cold.SamplerCached(oi)
		if err != nil || !built {
			b.fail("replay adaptation of %d: built %v err %v", objID, built, err)
			return
		}
		b.tr.record(spanAdapt, "replay", id, start)
	}
}

func (w *writer) readOnce(rec *ingestRec, traced bool) {
	b := w.b
	id := int64(1)<<41 | w.n
	w.n++
	j := w.rng.Intn(ingShapes)
	spec, req := w.d.shapeSpec(j, w.rng.Int63())
	path := "/v1/existsnn"
	if traced {
		b.tr.expect(runKey(req.Seed), id)
	}
	b.attempted.Add(1)
	sentAfter := w.lastAck
	start := time.Now()
	status, body, d, err := w.c.post(path, mustJSON(spec), id)
	if traced {
		b.tr.record(spanClientRead, "", id, start)
	}
	if err != nil || status != http.StatusOK {
		b.fail("read: status %d err %v body %.200s", status, err, body)
		return
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		b.fail("read: undecodable answer: %v", err)
		return
	}
	if qr.Version.Max < sentAfter {
		b.fail("read answered from version %d, older than the last ack %d sent before it", qr.Version.Max, sentAfter)
	}
	rec.reads.note(d, len(body), qr)
	if traced {
		snap := w.rig.proc.ShardSet().Snapshot()
		if snap.Version != qr.Version.Max {
			b.fail("replay: read ran at version %d, current snapshot is %d", qr.Version.Max, snap.Version)
			return
		}
		replayRead(b, snap, readOp{reqs: []pnn.Request{req}}, id)
	}
}

// eventLags joins the watched stream's events to the acks of the
// writes whose versions they report.
func (w *writer) eventLags(from, to time.Time) []float64 {
	var lags []float64
	for _, e := range w.rig.watch.snapshot() {
		if e.at.Before(from) || e.at.After(to) {
			continue
		}
		if ack, ok := w.acks[e.ev.Version]; ok {
			lags = append(lags, ms(e.at.Sub(ack)))
		}
	}
	return lags
}

func runIngest(b *bench) error {
	d, err := ingestDataset(b)
	if err != nil {
		return err
	}
	rep := 0
	rig, err := timedSetups(b, func() (*ingestRig, error) { rep++; return setupIngest(b, d, rep) })
	if err != nil {
		return err
	}
	defer rig.close()
	proc := rig.proc
	b.facts["ustree_leaves"] = leavesOf(proc.ShardSet().Snapshot())
	w := newWriter(b, d, rig)
	defer w.c.close()

	rec := &ingestRec{}
	cs0, ss0 := proc.CacheStats(), proc.SubscriptionStats()
	t0 := time.Now()
	w.phase("untraced", rec, false)
	t1 := time.Now()
	cs1, ss1 := proc.CacheStats(), proc.SubscriptionStats()
	b.addLatency("untraced", "event_lag", w.eventLags(t0, t1.Add(time.Second)))
	b.add("untraced", "heap_mb", "MB", heapMB(), 1)

	// Counts of the untraced phase: the traced phase's replays would
	// pollute the shared cache and registry counters.
	writes := float64(len(rec.write.values()))
	L := b.layer
	L["query.cache_hit_ratio"] = ratio(float64(cs1.Hits-cs0.Hits), float64(cs1.Hits-cs0.Hits+cs1.Builds-cs0.Builds))
	L["query.builds_per_write"] = ratio(float64(cs1.Builds-cs0.Builds), writes)
	L["sub.evals_per_write"] = ratio(float64(ss1.Evaluations-ss0.Evaluations), writes)
	L["sub.sweeps_per_write"] = ratio(float64(ss1.Sweeps-ss0.Sweeps), writes)
	L["sub.budget_reused_share"] = ratio(float64(ss1.ReusedBudget-ss0.ReusedBudget), float64(ss1.Evaluations-ss0.Evaluations))
	L["sub.touch_tests_per_write"] = ratio(float64(ss1.TouchTests-ss0.TouchTests), writes)
	L["store.wal_bytes_per_write"] = orZero(quantile(rec.walBytes.values(), 0.5))

	if b.traced {
		wal, err := store.OpenWAL(filepath.Join(b.work, "replay.wal"), 1, 0, 1, false)
		if err != nil {
			return err
		}
		w.wal = wal
		defer wal.Close()
		trec := &ingestRec{}
		b.tr.on.Store(true)
		t2 := time.Now()
		w.phase("traced", trec, true)
		b.tr.on.Store(false)
		b.addLatency("traced", "event_lag", w.eventLags(t2, time.Now().Add(time.Second)))
		start := time.Now()
		if err := proc.SpillNow(); err != nil {
			return err
		}
		L["store.spill_ms"] = ms(time.Since(start))
		L["ustree.leaves"] = float64(leavesOf(proc.ShardSet().Snapshot()))
		trec.reads.layerCounts(b)
		analyzeSpans(b)
	}
	checkWatched(b, w)
	return nil
}

// checkWatched verifies the watched subscription's last event: it must
// equal a one-shot at the event's version with MinWorlds set to the
// floor the event reports.
func checkWatched(b *bench, w *writer) {
	b.attempted.Add(1)
	if !w.rig.proc.WaitSubscriptionsIdle(30 * time.Second) {
		b.fail("subscriptions did not drain after the timed phase")
		return
	}
	want := w.rig.proc.Version()
	deadline := time.Now().Add(2 * time.Second)
	var last watchedEvent
	for {
		evs := w.rig.watch.snapshot()
		last = evs[len(evs)-1]
		if last.ev.Version >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap, ok := w.snaps[last.ev.Version]
	if !ok || last.ev.Response == nil {
		b.fail("watched event at version %d: no retained snapshot or no response", last.ev.Version)
		return
	}
	_, req := w.d.shapeSpec(0, shapeSeed(0))
	if last.ev.Sweep != nil {
		req.MinWorlds = last.ev.Sweep.WorldFloor
	}
	spec, item, err := pnn.NormalizeRequest(req)
	if err != nil {
		b.fail("watched check: %v", err)
		return
	}
	answers, raw, err := snap.RunShared(spec, []shard.GroupItem{item})
	if err != nil {
		b.fail("watched check: %v", err)
		return
	}
	ref := pnn.ResponseFromAnswer(item.Op, answers[0], raw)
	ref.Version = pnn.VersionInfo{Vector: snap.ShardVersions(), Max: snap.Version}
	if ok, diff := sameAnswer(answerOfHTTP(*last.ev.Response), answerOfFacade(ref)); !ok {
		b.fail("watched event at version %d differs from the one-shot at its floor:\n%s", last.ev.Version, diff)
	}
}
