// Command e2ebench is the end-to-end benchmark of the pnn serving stack.
// It builds the real server (internal/server over a Processor, or over
// a cluster Coordinator fronting in-process peers) on loopback HTTP,
// drives one named workload from a single closed-loop load generator,
// checks the answers, and prints every metric by name and unit. The
// last line of standard output is the machine-readable result.
//
//	e2ebench -workload read-mix -seed 1 -seconds 10 -trace 0
//
// With -trace 1 the run measures an untraced phase and then a traced
// phase of the same length, and reports per-layer metrics from spans
// recorded around the calls into each layer (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// endToEnd are the gated metrics every workload reports with -trace 0;
// their names and units match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"read_ops_s", "1/s"},
	{"read_p50_ms", "ms"},
}

// perLayer are the metrics every workload reports with -trace 1; their
// names and units match BENCHMARK.json. A layer metric whose operation
// the workload never performs reads 0.
var perLayer = []struct{ name, unit string }{
	{"server.read_self_ms_p50", "ms"},
	{"server.resp_kb_per_read", "kB"},
	{"server.write_self_ms_p50", "ms"},
	{"pnn.run_ms_p50", "ms"},
	{"pnn.run_ms_p99", "ms"},
	{"pnn.batch_ms_p50", "ms"},
	{"pnn.groups_per_batch_item", "ratio"},
	{"pnn.observe_ms_p50", "ms"},
	{"pnn.observe_ms_p90", "ms"},
	{"pnn.add_ms_p50", "ms"},
	{"shard.run_shared_ms_p50", "ms"},
	{"shard.exec_self_ms_p50", "ms"},
	{"ustree.prune_us_p50", "us"},
	{"ustree.influencers_per_read", "count"},
	{"ustree.candidates_per_read", "count"},
	{"ustree.update_ms_p50", "ms"},
	{"ustree.leaves", "count"},
	{"query.cache_hit_ratio", "ratio"},
	{"query.builds_per_write", "count"},
	{"query.worlds_per_read", "count"},
	{"query.early_stop_share", "ratio"},
	{"query.sampler_hit_us_p50", "us"},
	{"inference.adapt_ms_p50", "ms"},
	{"store.wal_append_us_p50", "us"},
	{"store.wal_bytes_per_write", "B"},
	{"store.spill_ms", "ms"},
	{"sub.evals_per_write", "count"},
	{"sub.sweeps_per_write", "count"},
	{"sub.budget_reused_share", "ratio"},
	{"sub.touch_tests_per_write", "count"},
}

// clusterLayer are the per-layer metrics only cluster-read measures.
// That workload is not declared in BENCHMARK.json (README.md), so they
// are printed and written to metrics.json but not to the result line.
var clusterLayer = []struct{ name, unit string }{
	{"cluster.router_run_ms_p50", "ms"},
	{"cluster.peer_scatter_ms_p50", "ms"},
	{"cluster.gather_self_ms_p50", "ms"},
	{"cluster.scatter_kb_per_read", "kB"},
	{"cluster.legs_per_read", "count"},
}

// layerMetrics lists the per-layer metrics this run's workload reports.
func (b *bench) layerMetrics() []struct{ name, unit string } {
	if b.workload == "cluster-read" {
		return append(perLayer[:len(perLayer):len(perLayer)], clusterLayer...)
	}
	return perLayer
}

// Every timed phase and every set-up repetition is bounded by these
// constants rather than flags: they are part of the workload
// definitions (README.md).
const (
	setupReps = 3 // set-ups per untraced run; setup_s is their median
	clients   = 2 // closed-loop client connections (the host's nproc)
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "read-mix | ingest-subscribed | cluster-read")
		seed     = flag.Int64("seed", 1, "seed of the request streams")
		seconds  = flag.Int("seconds", 10, "length of each timed phase")
		trace    = flag.Int("trace", 0, "1: add a traced phase and report per-layer metrics")
		out      = flag.String("out", ".bench_build/results", "directory for the run's artifacts")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want read-mix, ingest-subscribed or cluster-read)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		phase:    time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)),
		layer:    map[string]float64{},
		facts: map[string]any{
			"go_version": runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"nproc":      runtime.NumCPU(),
			"seed":       *seed,
			"workload":   *workload,
			"seconds":    *seconds,
			"clients":    clients,
		},
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	b.work = filepath.Join(b.dir, "work")
	defer os.RemoveAll(b.work)

	if err := oracleCheck(b); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: tiny-world oracle: %v\n", err)
		return 1
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		return 1
	}
	return b.finish()
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"read-mix":          runReadMix,
	"cluster-read":      runClusterRead,
	"ingest-subscribed": runIngest,
}

// bench accumulates one run's measurements, correctness verdicts and
// artifacts.
type bench struct {
	workload string
	seed     int64
	phase    time.Duration
	traced   bool
	tr       *tracer
	dir      string // artifacts
	work     string // scratch state (WAL directories), removed at exit

	facts  map[string]any
	rows   []row              // every end-to-end measurement, gated or not
	layer  map[string]float64 // per-layer metrics of the traced phase
	report strings.Builder    // per-layer attribution report (traced runs)

	attempted atomic.Int64
	failed    atomic.Int64
	failMu    sync.Mutex
	failures  []string
}

// row is one measured end-to-end figure with the sample count behind it.
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"samples"`
	Phase string  `json:"phase"`
}

// add records one figure; a statistic of no samples (NaN) is left out.
func (b *bench) add(phase, name, unit string, value float64, n int) {
	if math.IsNaN(value) {
		return
	}
	b.rows = append(b.rows, row{Name: name, Value: value, Unit: unit, N: n, Phase: phase})
}

// addLatency adds the median and every higher percentile the sample
// supports (at least ten samples beyond it).
func (b *bench) addLatency(phase, prefix string, v []float64) {
	b.add(phase, prefix+"_p50_ms", "ms", quantile(v, 0.5), len(v))
	for _, p := range []struct {
		q    float64
		name string
	}{{0.9, "_p90_ms"}, {0.99, "_p99_ms"}} {
		if supported(len(v), p.q) {
			b.add(phase, prefix+p.name, "ms", quantile(v, p.q), len(v))
		}
	}
}

func (b *bench) value(phase, name string) (float64, bool) {
	for _, r := range b.rows {
		if r.Phase == phase && r.Name == name {
			return r.Value, true
		}
	}
	return 0, false
}

// fail records one failed, refused or incorrect operation.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	defer b.failMu.Unlock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// heapMB forces a collection and returns the live heap. HeapInuse
// would also count the free space that earlier set-up repetitions left
// in partly used spans.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// release drops garbage between set-up repetitions so each starts from
// the same heap.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints the human-readable metrics, writes the artifacts and
// the result line, and returns the exit code.
func (b *bench) finish() int {
	for k, v := range b.layer {
		b.layer[k] = orZero(v)
	}
	metrics := map[string]metricJSON{}
	if b.traced {
		for _, m := range perLayer {
			metrics[m.name] = metricJSON{Value: b.layer[m.name], Unit: m.unit}
		}
	} else {
		for _, m := range endToEnd {
			v, ok := b.value("untraced", m.name)
			if !ok {
				b.fail("metric %s was not measured", m.name)
			}
			metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		}
	}
	if b.attempted.Load() < 1 {
		b.attempted.Store(1)
		b.fail("no operation was attempted")
	}
	attempted, failed := b.attempted.Load(), b.failed.Load()
	correct := failed == 0
	b.add("untraced", "fail_ratio", "ratio", float64(failed)/float64(attempted), int(attempted))

	keys := make([]string, 0, len(b.facts))
	for k := range b.facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("# machine and dataset")
	for _, k := range keys {
		fmt.Printf("  %-22s %v\n", k, b.facts[k])
	}
	fmt.Println("# end-to-end")
	for _, r := range b.rows {
		fmt.Printf("  %-9s %-22s %14.4f %-6s n=%d\n", r.Phase, r.Name, r.Value, r.Unit, r.N)
	}
	if b.traced {
		fmt.Println("# per-layer (traced phase)")
		for _, m := range b.layerMetrics() {
			fmt.Printf("  %-30s %14.4f %s\n", m.name, b.layer[m.name], m.unit)
		}
	}
	for _, f := range b.failures {
		fmt.Println("# FAIL", f)
	}

	art := map[string]any{
		"facts": b.facts, "rows": b.rows, "per_layer": b.layer,
		"correct": correct, "attempted": attempted, "failed": failed, "failures": b.failures,
	}
	if err := writeJSONFile(filepath.Join(b.dir, "metrics.json"), art); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: writing artifacts: %v\n", err)
		return 1
	}
	if b.traced {
		if err := b.tr.dump(filepath.Join(b.dir, "spans.jsonl")); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		if err := os.WriteFile(filepath.Join(b.dir, "report.md"), []byte(b.report.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: writing report: %v\n", err)
			return 1
		}
	}
	fmt.Printf("# artifacts in %s\n", b.dir)
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
