package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"pnn"
	"pnn/internal/server"
)

// node is one HTTP server on a loopback listener.
type node struct {
	url  string
	hs   *http.Server
	done chan error
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// stop drains the server and waits for its accept loop to exit. Close
// the backend's subscriptions first, so open event streams end.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// serverConfig mirrors pnnserve's defaults on this host: a batch worker
// per CPU, ingestion on.
func serverConfig(role string) server.Config {
	return server.Config{BatchWorkers: clients, Ingest: true, Role: role}
}

// front wraps a backend and its handler for the traced run; untraced
// runs serve the bare objects.
func front(b *bench, net *pnn.Network, be server.Backend, role string) http.Handler {
	if b.tr == nil {
		return server.New(net, be, serverConfig(role))
	}
	return &tracedHandler{h: server.New(net, &tracedBackend{Backend: be, tr: b.tr}, serverConfig(role)), tr: b.tr}
}

// client is one closed-loop connection: it sends its next request only
// after the previous answer has been read.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body and returns the status, the response body and the
// latency from send to the last response byte.
func (c *client) post(path string, body []byte, req int64) (int, []byte, time.Duration, error) {
	hr, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set("X-Request-Id", strconv.FormatInt(req, 10))
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw, time.Since(start), err
}

// ready blocks until the node answers /healthz: the end of set-up.
func (c *client) ready() error {
	for i := 0; i < 100; i++ {
		resp, err := c.hc.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", c.base)
}
