package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pnn"
)

// ErrPeerUnavailable marks a gather that could not complete
// consistently: a peer RPC failed (after the hedged retry), timed out,
// or the per-request snapshots could not be reconciled. The API layer
// maps it to HTTP 503 with code "peer_unavailable"; a response wrapping
// it never carries a partial answer. It is the front's sentinel
// (pnn.ErrPeerUnavailable), which batch reconciliation also returns.
var ErrPeerUnavailable = pnn.ErrPeerUnavailable

// rpcError is a structured error a peer returned (its /internal
// envelope decoded): the write-rejection and validation cases that must
// NOT be classified as peer unavailability — the peer is healthy, it
// just said no.
type rpcError struct {
	Code    string
	Message string
	Status  int
}

func (e *rpcError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// peerClient speaks the /internal RPC surface of one peer.
type peerClient struct {
	name string
	base string // e.g. http://127.0.0.1:9001
	hc   *http.Client

	timeout time.Duration // per-attempt budget
	hedge   time.Duration // straggler delay before the one hedged retry

	mu        sync.Mutex
	healthy   bool
	lastErr   string
	lastProbe time.Time
	health    HealthInfo
}

func newPeerClient(name, base string, timeout, hedge time.Duration) *peerClient {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if hedge <= 0 {
		hedge = timeout / 4
	}
	return &peerClient{
		name:    name,
		base:    base,
		hc:      &http.Client{},
		timeout: timeout,
		hedge:   hedge,
	}
}

// call performs one POST (or GET when in is nil) against path and
// decodes the JSON answer into out. Transport failures, timeouts and
// 5xx answers wrap ErrPeerUnavailable; structured envelopes with a
// non-5xx status come back as *rpcError.
func (p *peerClient) call(ctx context.Context, path string, in, out any) error {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	var req *http.Request
	var err error
	if in == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, p.base+path, nil)
	} else {
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(in); err != nil {
			return err
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, &body)
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return err
	}
	// Ask for gzip explicitly (disabling the transport's transparent
	// handling) so large scatter payloads travel compressed; servers
	// that ignore the header still answer identity, which decodes the
	// same below.
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := p.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, p.name, err)
	}
	defer resp.Body.Close()
	var body io.Reader = io.LimitReader(resp.Body, 256<<20)
	if resp.Header.Get("Content-Encoding") == "gzip" {
		gz, gzErr := gzip.NewReader(body)
		if gzErr != nil {
			return fmt.Errorf("%w: %s: gzip response: %v", ErrPeerUnavailable, p.name, gzErr)
		}
		defer gz.Close()
		body = io.LimitReader(gz, 256<<20)
	}
	raw, err := io.ReadAll(body)
	if err != nil {
		return fmt.Errorf("%w: %s: reading response: %v", ErrPeerUnavailable, p.name, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorJSON
		if jsonErr := json.Unmarshal(raw, &env); jsonErr == nil && env.Error.Code != "" && resp.StatusCode < 500 {
			return &rpcError{Code: env.Error.Code, Message: env.Error.Message, Status: resp.StatusCode}
		}
		return fmt.Errorf("%w: %s: %s: HTTP %d", ErrPeerUnavailable, p.name, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// callHedged is call with one hedged retry: if the first attempt has
// not answered within the hedge delay, a second identical request is
// fired and the first success wins. Only used for idempotent reads
// (scatter, health, touch) — a straggling peer costs one duplicate
// probe instead of the whole gather's latency.
func (p *peerClient) callHedged(ctx context.Context, path string, in, out any) error {
	type result struct {
		err error
		raw json.RawMessage
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan result, 2)
	attempt := func() {
		var raw json.RawMessage
		err := p.call(ctx, path, in, &raw)
		results <- result{err: err, raw: raw}
	}
	go attempt()
	var firstErr error
	timer := time.NewTimer(p.hedge)
	defer timer.Stop()
	launched := 1
	for done := 0; done < launched; {
		select {
		case <-timer.C:
			if launched == 1 {
				launched = 2
				go attempt()
			}
		case r := <-results:
			if r.err == nil {
				if out == nil {
					return nil
				}
				return json.Unmarshal(r.raw, out)
			}
			done++
			if firstErr == nil {
				firstErr = r.err
			}
			// A structured rejection is deterministic — the hedge would
			// only repeat it.
			var rerr *rpcError
			if errors.As(r.err, &rerr) {
				return r.err
			}
			if launched == 1 {
				launched = 2
				go attempt()
			}
		}
	}
	return firstErr
}

// probe refreshes the peer's health record and returns it.
func (p *peerClient) probe(ctx context.Context) (HealthInfo, error) {
	var h HealthInfo
	err := p.call(ctx, "/internal/health", nil, &h)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastProbe = time.Now()
	if err != nil {
		p.healthy = false
		p.lastErr = err.Error()
		return HealthInfo{}, err
	}
	p.healthy = true
	p.lastErr = ""
	p.health = h
	return h, nil
}

// status returns the last known health view of the peer.
func (p *peerClient) status() (healthy bool, lastErr string, lastProbe time.Time, h HealthInfo) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy, p.lastErr, p.lastProbe, p.health
}
