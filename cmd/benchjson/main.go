// Command benchjson converts Go benchmark output into a compact,
// machine-comparable JSON summary — the BENCH_<sha>.json files the CI
// pipeline uploads on every push so the repository's performance
// trajectory is checkable instead of anecdotal.
//
// It reads stdin in either format:
//
//   - the event stream of `go test -json -bench ...` (benchmark result
//     lines arrive as "output" events, tagged with their package), or
//   - plain `go test -bench ...` text.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x -benchmem -json ./... \
//	    | go run ./cmd/benchjson -commit "$(git rev-parse HEAD)" > BENCH_$(git rev-parse HEAD).json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement. AllocsPerOp is a pointer so a
// measured zero — the steady state of the world-sampling kernel, and
// the value cmd/benchdiff's allocation gate most needs to defend — is
// distinguishable in the JSON from "the benchmark did not report
// allocations at all" (absent field).
type Result struct {
	Package     string   `json:"package,omitempty"`
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  float64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (e.g. "evals/write",
	// "ms/write" from the subscription fanout benchmark), keyed by
	// unit. cmd/benchdiff gates shared extra metrics like ns/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the whole summary.
type File struct {
	Commit     string `json:"commit,omitempty"`
	GoVersion  string `json:"go_version"`
	GoOS       string `json:"goos"`
	GoArch     string `json:"goarch"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Shards records the shard configuration the benchmarks ran with
	// (0: repository default). cmd/benchdiff treats it as part of the
	// machine shape — summaries from different shard configs are not
	// gated against each other.
	Shards int `json:"shards,omitempty"`
	// CPU is the processor model `go test -bench` reports ("cpu: ..."
	// header). cmd/benchdiff gates timings only between summaries from
	// the same model.
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// testEvent is the subset of test2json's event schema we consume.
type testEvent struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

func main() {
	commit := flag.String("commit", "", "commit hash recorded in the summary")
	shards := flag.Int("shards", 0, "shard configuration the benchmarks ran with (0: repository default)")
	flag.Parse()

	out := File{
		Commit:     *commit,
		GoVersion:  runtime.Version(),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Shards:     *shards,
	}
	emit := func(pkg, text string) {
		if cpu, ok := strings.CutPrefix(text, "cpu: "); ok && out.CPU == "" {
			out.CPU = strings.TrimSpace(cpu)
		}
		if r, ok := parseBenchLine(text); ok {
			r.Package = pkg
			out.Results = append(out.Results, r)
		}
	}
	// test2json splits one benchmark result over several output events
	// (the name flushes before the measurements), so reassemble complete
	// lines per package before parsing.
	partial := make(map[string]string)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev testEvent
			if err := json.Unmarshal([]byte(line), &ev); err == nil {
				if ev.Action != "output" {
					continue
				}
				buf := partial[ev.Package] + ev.Output
				for {
					nl := strings.IndexByte(buf, '\n')
					if nl < 0 {
						break
					}
					emit(ev.Package, buf[:nl])
					buf = buf[nl+1:]
				}
				partial[ev.Package] = buf
				continue
			}
		}
		emit("", line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading input: %v\n", err)
		os.Exit(1)
	}
	for pkg, rest := range partial {
		emit(pkg, rest)
	}
	sort.Slice(out.Results, func(i, j int) bool {
		if out.Results[i].Package != out.Results[j].Package {
			return out.Results[i].Package < out.Results[j].Package
		}
		return out.Results[i].Name < out.Results[j].Name
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// normalizeName strips the "-<GOMAXPROCS>" suffix the testing package
// appends to benchmark names when GOMAXPROCS > 1, so summaries produced
// on machines with different core counts key-match on "name" (the
// machine shape is recorded once in File.GoMaxProcs instead). With
// GOMAXPROCS == 1 no suffix is ever emitted, so nothing is stripped —
// sub-benchmark names that happen to end in "-1" stay intact.
func normalizeName(name string) string {
	procs := runtime.GOMAXPROCS(0)
	if procs > 1 {
		return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
	}
	return name
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkObserve-8   	    570	   2097221 ns/op	 1485889 B/op	   13434 allocs/op
//
// Non-benchmark lines report ok=false.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: normalizeName(fields[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[fields[i+1]] = v
		}
	}
	return r, seen
}
