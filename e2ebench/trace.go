package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pnn"
	"pnn/internal/server"
)

// Span names. Live spans bracket a call into a layer while the request
// is served; replay spans re-run one sampled operation through a deeper
// layer's public entry point after the client got its answer, on the
// snapshot the operation ran against.
const (
	spanClientRead  = "client.read"          // one-shot read, send to last response byte
	spanClientBatch = "client.batch"         // /v1/batch, same
	spanClientWrite = "client.write"         // /v1/observe or /v1/objects, same
	spanHandler     = "server.handler"       // http.Handler of the node the client talks to
	spanRun         = "pnn.run"              // server.Backend.Run (Processor or Coordinator)
	spanBatch       = "pnn.batch"            // server.Backend.RunBatchStats
	spanObserve     = "pnn.observe"          // server.Backend.Observe
	spanAdd         = "pnn.add"              // server.Backend.AddObject
	spanPeerScatter = "cluster.peer_scatter" // peer http.Handler on /internal/scatter
	spanRunShared   = "shard.run_shared"     // replay: pnn.NormalizeRequest -> Snap.RunShared
	spanPrune       = "ustree.prune"         // replay: Engine.PruneWindow, one per shard
	spanSamplerHit  = "query.sampler_hit"    // replay: Engine.SamplerCached with built=false
	spanAdapt       = "inference.adapt"      // replay: Engine.SamplerCached with built=true
	spanUpdate      = "ustree.update"        // replay: Tree.WithUpdatedObject on the pre-write tree
	spanWALAppend   = "store.wal_append"     // replay: WAL.Append to a scratch log
)

// span is one timed call. Start and End are nanoseconds since the
// tracer's epoch; Req ties the spans of one client operation together
// (-1 when the operation could not be attributed).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Items  int    `json:"items,omitempty"`
	Groups int    `json:"groups,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. Server-side wrappers
// cannot see the client's request ID, so the client registers a
// content key for every operation it sends (the request seed, the batch
// shared seed, the written object) and the wrappers look it up.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
	keys  sync.Map // string -> int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) expect(key string, req int64) {
	if t.enabled() {
		t.keys.Store(key, req)
	}
}

func (t *tracer) reqOf(key string) int64 {
	if v, ok := t.keys.Load(key); ok {
		return v.(int64)
	}
	return -1
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record appends a span that ran from start until now.
func (t *tracer) record(name, parent string, req int64, start time.Time) {
	t.add(span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(time.Since(t.epoch))})
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runKey(seed int64) string   { return "run:" + strconv.FormatInt(seed, 10) }
func batchKey(seed int64) string { return "batch:" + strconv.FormatInt(seed, 10) }
func writeKey(id, t int) string  { return fmt.Sprintf("write:%d:%d", id, t) }

// tracedBackend is the server.Backend decorator of the traced run: it
// times the calls the HTTP layer makes into the facade (a Processor) or
// the router (a Coordinator). Disabled, it only forwards.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b *tracedBackend) Run(req pnn.Request) pnn.Response {
	if !b.tr.enabled() {
		return b.Backend.Run(req)
	}
	start := time.Now()
	resp := b.Backend.Run(req)
	b.tr.record(spanRun, spanHandler, b.tr.reqOf(runKey(req.Seed)), start)
	return resp
}

func (b *tracedBackend) RunBatchStats(reqs []pnn.Request, opts pnn.BatchOptions) ([]pnn.Response, pnn.BatchStats) {
	if !b.tr.enabled() {
		return b.Backend.RunBatchStats(reqs, opts)
	}
	start := time.Now()
	out, st := b.Backend.RunBatchStats(reqs, opts)
	s := span{Name: spanBatch, Parent: spanHandler, Req: b.tr.reqOf(batchKey(opts.SharedSeed)),
		Start: int64(start.Sub(b.tr.epoch)), End: int64(time.Since(b.tr.epoch)),
		Items: st.Requests, Groups: st.Groups}
	b.tr.add(s)
	return out, st
}

func (b *tracedBackend) AddObject(id int, obs []pnn.Observation) (pnn.Ingest, error) {
	if !b.tr.enabled() || len(obs) == 0 {
		return b.Backend.AddObject(id, obs)
	}
	start := time.Now()
	ing, err := b.Backend.AddObject(id, obs)
	b.tr.record(spanAdd, spanHandler, b.tr.reqOf(writeKey(id, obs[0].T)), start)
	return ing, err
}

func (b *tracedBackend) Observe(id int, obs ...pnn.Observation) (pnn.Ingest, error) {
	if !b.tr.enabled() || len(obs) == 0 {
		return b.Backend.Observe(id, obs...)
	}
	start := time.Now()
	ing, err := b.Backend.Observe(id, obs...)
	b.tr.record(spanObserve, spanHandler, b.tr.reqOf(writeKey(id, obs[0].T)), start)
	return ing, err
}

// tracedPaths are the public endpoints whose handler spans the traced
// run records; /v1/subscribe streams for the whole run and /healthz is
// set-up traffic.
var tracedPaths = map[string]bool{
	"/v1/forallnn": true, "/v1/existsnn": true, "/v1/pcnn": true, "/v1/batch": true,
	"/v1/objects": true, "/v1/observe": true,
}

// tracedHandler times the public http.Handler and counts the response
// bytes it writes.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tr.enabled() || !tracedPaths[r.URL.Path] {
		t.h.ServeHTTP(w, r)
		return
	}
	req, err := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
	if err != nil {
		req = -1
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(cw, r)
	t.tr.add(span{Name: spanHandler, Req: req,
		Start: int64(start.Sub(t.tr.epoch)), End: int64(time.Since(t.tr.epoch)), Bytes: cw.n})
}

// peerHandler times a peer's /internal/scatter legs. The router's RPC
// carries no request ID, so the leg is attributed through the group
// seed in its body, which equals the one-shot request seed (or the
// batch group seed the client registered).
type peerHandler struct {
	h  http.Handler
	tr *tracer
}

func (p *peerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.tr.enabled() || r.URL.Path != "/internal/scatter" {
		p.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var head struct {
		Seed int64 `json:"seed"`
	}
	req := int64(-1)
	if json.Unmarshal(body, &head) == nil {
		req = p.tr.reqOf(runKey(head.Seed))
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	cw := &countingWriter{ResponseWriter: w}
	p.h.ServeHTTP(cw, r)
	p.tr.add(span{Name: spanPeerScatter, Parent: spanRun, Req: req,
		Start: int64(start.Sub(p.tr.epoch)), End: int64(time.Since(p.tr.epoch)), Bytes: cw.n})
}

// countingWriter counts body bytes and keeps SSE flushing working.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
