// Cross-process cluster conformance: boots a real router + two shard
// peers as separate pnnserve processes (plus a single-process two-shard
// reference), and checks the router's /v1 answers are byte-identical to
// the reference, that /v1/cluster sees both peers, and that killing a
// peer yields the structured peer_unavailable rejection. The in-process
// equivalent lives in internal/server; this tier exercises the real
// binary, real sockets and real process death, so it is opt-in:
//
//	PNN_CLUSTER_E2E=1 go test -race -run TestClusterProcessTrio ./cmd/pnnserve/
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pnn/internal/server"
)

func TestClusterProcessTrio(t *testing.T) {
	if os.Getenv("PNN_CLUSTER_E2E") == "" {
		t.Skip("set PNN_CLUSTER_E2E=1 to run the cross-process cluster tier")
	}

	bin := filepath.Join(t.TempDir(), "pnnserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pnnserve: %v\n%s", err, out)
	}

	ports := freePorts(t, 4)
	singleAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	peerAAddr := fmt.Sprintf("127.0.0.1:%d", ports[1])
	peerBAddr := fmt.Sprintf("127.0.0.1:%d", ports[2])
	routerAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])
	peersFlag := fmt.Sprintf("a=http://%s,b=http://%s", peerAAddr, peerBAddr)

	// Every node regenerates the same deterministic dataset; peers then
	// retain only their ring slice before indexing.
	dataset := []string{
		"-dataset", "synthetic", "-states", "400", "-objects", "40",
		"-lifetime", "60", "-horizon", "120", "-obs", "10",
		"-seed", "1", "-samples", "200",
	}
	start := func(name string, args ...string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bin, append(args, dataset...)...)
		var logs bytes.Buffer
		cmd.Stdout, cmd.Stderr = &logs, &logs
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
			if t.Failed() {
				t.Logf("%s logs:\n%s", name, logs.String())
			}
		})
		return cmd
	}

	start("single", "-addr", singleAddr, "-shards", "2")
	start("peer-a", "-addr", peerAAddr, "-role", "peer", "-peer-name", "a", "-peers", peersFlag)
	peerB := start("peer-b", "-addr", peerBAddr, "-role", "peer", "-peer-name", "b", "-peers", peersFlag)
	// The router bootstraps against the peers, so it can start last and
	// its /healthz going live implies the whole trio is up.
	start("router", "-addr", routerAddr, "-role", "router", "-peers", peersFlag,
		"-bootstrap-timeout", "60s", "-probe-interval", "200ms")

	waitHealthy(t, "http://"+singleAddr)
	waitHealthy(t, "http://"+routerAddr)

	// Identical answers from the router and the single process: results,
	// worlds, sampling and version blocks and the refined candidate and
	// influencer counts must match byte for byte. stats.sampler_builds
	// counts adaptations per partition (peers retain by ring arc, the
	// reference shards by object hash — both valid layouts), so it is
	// normalized out; internal/server's in-process conformance suite
	// pins full byte-identity on matched layouts.
	normalize := func(raw []byte) []byte {
		t.Helper()
		var qr server.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("answer undecodable: %v (%s)", err, raw)
		}
		qr.Stats.SamplerBuilds = 0
		out, err := json.Marshal(qr)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	queries := []struct{ path, body string }{
		{"/v1/forallnn", `{"query": {"state": 17}, "window": {"ts": 20, "te": 29}, "tau": 0.1, "seed": 7}`},
		{"/v1/existsnn", `{"query": {"state": 17}, "window": {"ts": 20, "te": 29}, "tau": 0.1, "seed": 7, "k": 2}`},
		{"/v1/forallnn", `{"query": {"state": 17}, "window": {"ts": 20, "te": 29}, "tau": 0.3, "seed": 7, "confidence": {"eps": 0.1}}`},
	}
	for _, q := range queries {
		sCode, sRaw := postBody(t, "http://"+singleAddr+q.path, q.body)
		rCode, rRaw := postBody(t, "http://"+routerAddr+q.path, q.body)
		if sCode != http.StatusOK || rCode != http.StatusOK {
			t.Fatalf("%s: single = %d (%s), router = %d (%s)", q.path, sCode, sRaw, rCode, rRaw)
		}
		if s, r := normalize(sRaw), normalize(rRaw); !bytes.Equal(s, r) {
			t.Errorf("%s diverges:\nsingle: %s\nrouter: %s", q.path, s, r)
		}
	}

	// The router sees both peers healthy.
	var st struct {
		Peers []struct {
			Name    string `json:"name"`
			Healthy bool   `json:"healthy"`
		} `json:"peers"`
	}
	getInto(t, "http://"+routerAddr+"/v1/cluster", &st)
	if len(st.Peers) != 2 || !st.Peers[0].Healthy || !st.Peers[1].Healthy {
		t.Fatalf("cluster status = %+v, want 2 healthy peers", st)
	}

	// Kill one peer: queries must fail structurally, never partially.
	if err := peerB.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	peerB.Wait()
	code, raw := postBody(t, "http://"+routerAddr+"/v1/forallnn",
		`{"query": {"state": 17}, "window": {"ts": 20, "te": 29}, "tau": 0.1, "seed": 7}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query with dead peer = %d, want 503 (%s)", code, raw)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error envelope undecodable: %s", raw)
	}
	if env.Error.Code != "peer_unavailable" {
		t.Errorf("error.code = %q, want peer_unavailable (%s)", env.Error.Code, raw)
	}
	if bytes.Contains(raw, []byte(`"results"`)) {
		t.Errorf("dead-peer answer leaked partial results: %s", raw)
	}
}

// freePorts reserves n distinct loopback ports and releases them for
// the servers to bind.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().(*net.TCPAddr).Port
		l.Close()
	}
	return ports
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became healthy", base)
}

func postBody(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getInto(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
