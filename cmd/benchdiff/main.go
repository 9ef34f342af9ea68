// Command benchdiff compares two benchmark summaries produced by
// cmd/benchjson and fails when the current run regressed: it is the
// blocking CI gate that turns the repository's BENCH_*.json perf
// trajectory from a record into a contract.
//
// Benchmarks are matched by (package, name). A shared benchmark whose
// ns/op grew by more than -max-regress percent, or whose allocs/op
// grew by more than -max-allocs-regress percent, is a regression; any
// regression exits 1 after printing the full diff table (markdown, so
// CI can upload it as a readable artifact via -out). The allocation
// gate protects the zero-allocation sampling kernel: ns/op on a noisy
// runner can absorb a reintroduced per-world allocation that
// allocs/op — a deterministic counter — cannot miss. A baseline that
// measured zero allocs/op is defended absolutely (any allocation
// fails, no percent involved); benchmarks without allocation data on
// either side (pre-ReportAllocs baselines) are gated on ns/op alone.
//
// Nothing is comparable between runs of different machine shapes, so
// when the two files disagree on goos/goarch/GOMAXPROCS/Go version (or
// the shard configuration recorded by benchjson -shards) the gate
// prints the table, warns, and exits 0. Timings — ns/op and timed
// custom units such as ms/write or MB/s — are further only comparable
// on the same CPU model: when the shapes match but the CPUs differ (or
// the baseline recorded none), the gate keeps allocs/op and count
// units such as evals/write, which do not depend on the hardware, and
// reports the timing rows without gating them. Commit a CI bench-gate
// artifact as BENCH_baseline.json to arm the timing gate for the
// runner's CPU. -gate-anyway overrides both guards for local
// experiments.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_abc123.json \
//	    -max-regress 25 -out benchdiff.md
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Result mirrors cmd/benchjson's per-benchmark measurement. A nil
// AllocsPerOp means the run recorded no allocation data for the
// benchmark (old-format summaries, or a run without -benchmem); an
// explicit 0 means a measured zero-allocation benchmark, which the
// gate defends absolutely.
type Result struct {
	Package     string   `json:"package,omitempty"`
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  float64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric units (benchjson's "extra"
	// block): evals/write and ms/write from the subscription fanout
	// benchmark. Units present in both summaries are gated like ns/op.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File mirrors cmd/benchjson's summary schema.
type File struct {
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Shards     int      `json:"shards,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Results    []Result `json:"results"`
}

func (f *File) shape() string {
	return fmt.Sprintf("%s/%s procs=%d shards=%d %s", f.GoOS, f.GoArch, f.GoMaxProcs, f.Shards, f.GoVersion)
}

// timedUnit reports whether a custom metric unit measures time — a
// duration per something ("ms/write") or a rate ("MB/s") — and so is
// only comparable on the same CPU, unlike counts such as "evals/write".
func timedUnit(unit string) bool {
	if strings.HasSuffix(unit, "/s") {
		return true
	}
	for _, p := range []string{"ns/", "us/", "µs/", "ms/", "s/"} {
		if strings.HasPrefix(unit, p) {
			return true
		}
	}
	return false
}

// gateMode decides what the gate enforces between two summaries:
// nothing across machine shapes (armed false), every metric on the
// same shape and CPU model (timed true), and only the
// hardware-independent ones otherwise. anyway (-gate-anyway) arms
// everything.
func gateMode(base, cur *File, anyway bool) (armed, timed bool) {
	if anyway {
		return true, true
	}
	if base.shape() != cur.shape() {
		return false, false
	}
	return true, base.CPU != "" && base.CPU == cur.CPU
}

// untimed withdraws the timing verdicts of rows — ns/op and timed
// custom units — leaving the allocation and count gates, for runs on
// different CPUs.
func untimed(rows []Row) {
	for i := range rows {
		rows[i].Regression = false
		for j := range rows[i].Extras {
			if timedUnit(rows[i].Extras[j].Unit) {
				rows[i].Extras[j].Regression = false
			}
		}
	}
}

// ExtraDelta is one custom-metric comparison of a shared benchmark.
type ExtraDelta struct {
	Unit       string
	Base, Cur  float64
	DeltaPct   float64 // (cur-base)/base * 100; 0 when base is 0
	Regression bool    // moved the worse way beyond the ns/op threshold
}

// Row is one line of the diff table.
type Row struct {
	Key                   string // "package name"
	Base, Cur             float64
	DeltaPct              float64 // (cur-base)/base * 100; 0 when base is 0
	Regression            bool    // ns/op grew beyond the threshold
	BaseAllocs, CurAllocs *float64
	AllocsDeltaPct        float64      // +Inf when a zero-alloc baseline grew; 0 without data
	AllocsRegression      bool         // allocs/op grew beyond the threshold
	Extras                []ExtraDelta // custom metrics present in both summaries, by unit
	Status                string       // "shared" | "new" | "removed"
}

// Regressed reports whether the row fails the gate on any metric.
func (r Row) Regressed() bool {
	if r.Regression || r.AllocsRegression {
		return true
	}
	for _, e := range r.Extras {
		if e.Regression {
			return true
		}
	}
	return false
}

// diff matches benchmarks by (package, name) and flags shared ones
// whose ns/op grew beyond maxRegressPct or whose allocs/op grew beyond
// maxAllocRegressPct. The allocation gate arms when both sides
// recorded allocation data; a baseline that measured ZERO allocs/op is
// defended absolutely — any current allocation at all is a regression,
// since a zero-allocation steady state has no growth rate and losing
// it is the exact failure the gate exists to catch. Benchmarks without
// data on either side (summaries predating ReportAllocs/-benchmem) are
// gated on ns/op alone.
func diff(base, cur *File, maxRegressPct, maxAllocRegressPct float64) []Row {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Package+" "+r.Name] = r
	}
	var rows []Row
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		key := r.Package + " " + r.Name
		seen[key] = true
		b, ok := baseBy[key]
		if !ok {
			rows = append(rows, Row{Key: key, Cur: r.NsPerOp, CurAllocs: r.AllocsPerOp, Status: "new"})
			continue
		}
		row := Row{
			Key: key, Base: b.NsPerOp, Cur: r.NsPerOp,
			BaseAllocs: b.AllocsPerOp, CurAllocs: r.AllocsPerOp,
			Status: "shared",
		}
		if b.NsPerOp > 0 {
			row.DeltaPct = (r.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
			row.Regression = row.DeltaPct > maxRegressPct
		}
		if b.AllocsPerOp != nil && r.AllocsPerOp != nil {
			switch ba, ca := *b.AllocsPerOp, *r.AllocsPerOp; {
			case ba > 0:
				row.AllocsDeltaPct = (ca - ba) / ba * 100
				row.AllocsRegression = row.AllocsDeltaPct > maxAllocRegressPct
			case ca > 0: // zero-alloc baseline reintroduced allocations
				row.AllocsDeltaPct = math.Inf(1)
				row.AllocsRegression = true
			}
		}
		// Custom metrics (evals/write, ms/write, ...) gate exactly like
		// ns/op when both summaries recorded the unit, except rates
		// (units per second, such as the MB/s of b.SetBytes), which
		// regress when they fall. Units on one side only are ignored —
		// adding or retiring a metric is not a regression, the baseline
		// refresh picks it up.
		units := make([]string, 0, len(b.Extra))
		for unit := range b.Extra {
			if _, ok := r.Extra[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			ed := ExtraDelta{Unit: unit, Base: b.Extra[unit], Cur: r.Extra[unit]}
			if ed.Base > 0 {
				ed.DeltaPct = (ed.Cur - ed.Base) / ed.Base * 100
				worse := ed.DeltaPct
				if strings.HasSuffix(unit, "/s") {
					worse = -worse
				}
				ed.Regression = worse > maxRegressPct
			}
			row.Extras = append(row.Extras, ed)
		}
		rows = append(rows, row)
	}
	for key, b := range baseBy {
		if !seen[key] {
			rows = append(rows, Row{Key: key, Base: b.NsPerOp, BaseAllocs: b.AllocsPerOp, Status: "removed"})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
	return rows
}

// table renders the diff as a markdown table.
func table(rows []Row) string {
	var sb strings.Builder
	sb.WriteString("| benchmark | baseline ns/op | current ns/op | delta | baseline allocs/op | current allocs/op | allocs delta | status |\n")
	sb.WriteString("|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, r := range rows {
		status := r.Status
		if r.Regressed() {
			status = "**REGRESSION**"
		}
		delta, allocsDelta := "-", "-"
		if r.Status == "shared" {
			delta = fmt.Sprintf("%+.1f%%", r.DeltaPct)
			switch {
			case math.IsInf(r.AllocsDeltaPct, 1):
				allocsDelta = "0 → nonzero"
			case r.BaseAllocs != nil && r.CurAllocs != nil:
				allocsDelta = fmt.Sprintf("%+.1f%%", r.AllocsDeltaPct)
			}
		}
		sb.WriteString(fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | %s |\n",
			r.Key, fmtNs(r.Base, r.Status == "new"), fmtNs(r.Cur, r.Status == "removed"), delta,
			fmtAllocs(r.BaseAllocs, r.Status == "new"), fmtAllocs(r.CurAllocs, r.Status == "removed"), allocsDelta, status))
	}
	extras := false
	for _, r := range rows {
		if len(r.Extras) > 0 {
			extras = true
			break
		}
	}
	if extras {
		sb.WriteString("\n| benchmark | metric | baseline | current | delta |\n")
		sb.WriteString("|---|---|---:|---:|---:|\n")
		for _, r := range rows {
			for _, e := range r.Extras {
				delta := fmt.Sprintf("%+.1f%%", e.DeltaPct)
				if e.Regression {
					delta += " **REGRESSION**"
				}
				sb.WriteString(fmt.Sprintf("| %s | %s | %.3g | %.3g | %s |\n", r.Key, e.Unit, e.Base, e.Cur, delta))
			}
		}
	}
	return sb.String()
}

func fmtNs(v float64, absent bool) string {
	if absent {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

func fmtAllocs(v *float64, absent bool) string {
	if absent || v == nil {
		return "-"
	}
	return fmt.Sprintf("%.0f", *v)
}

func load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() {
	var (
		basePath        = flag.String("baseline", "BENCH_baseline.json", "baseline summary (benchjson output)")
		curPath         = flag.String("current", "", "current summary to gate (benchjson output)")
		maxRegress      = flag.Float64("max-regress", 25, "max allowed ns/op growth in percent for any shared benchmark")
		maxAllocRegress = flag.Float64("max-allocs-regress", 25, "max allowed allocs/op growth in percent for any shared benchmark with allocation data on both sides")
		outPath         = flag.String("out", "", "also write the markdown diff table to this file")
		gateAnyway      = flag.Bool("gate-anyway", false, "enforce the whole gate even when the machine shapes or CPU models differ")
	)
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}
	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := load(*curPath)
	if err != nil {
		fatal(err)
	}

	rows := diff(base, cur, *maxRegress, *maxAllocRegress)
	armed, timed := gateMode(base, cur, *gateAnyway)
	if armed && !timed {
		fmt.Fprintf(os.Stderr,
			"benchdiff: WARNING CPU models differ (baseline %q vs current %q); timings are not comparable, "+
				"gating allocs/op and count metrics only — commit this run's summary as the baseline to gate timings\n",
			base.CPU, cur.CPU)
		untimed(rows)
	}
	md := table(rows)
	fmt.Print(md)
	if *outPath != "" {
		if err := os.WriteFile(*outPath, []byte(md), 0o644); err != nil {
			fatal(err)
		}
	}

	var regressed []Row
	shared := 0
	for _, r := range rows {
		if r.Status == "shared" {
			shared++
		}
		if r.Regressed() {
			regressed = append(regressed, r)
		}
		// The allocation gate can only disarm silently in one direction:
		// the current run stopped reporting what the baseline measured
		// (dropped ReportAllocs, or -benchmem gone from the recipe).
		// Make that loss loud — it is how a reintroduced allocation
		// would slip past the gate unflagged.
		if r.Status == "shared" && r.BaseAllocs != nil && r.CurAllocs == nil {
			fmt.Fprintf(os.Stderr,
				"benchdiff: WARNING %s: baseline records allocs/op but the current run does not; "+
					"allocation gate disarmed for it — restore ReportAllocs/-benchmem\n", r.Key)
		}
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d shared, %d regressed (thresholds ns/op %+.0f%%, allocs/op %+.0f%%)\n",
		shared, len(regressed), *maxRegress, *maxAllocRegress)

	if !armed {
		fmt.Fprintf(os.Stderr,
			"benchdiff: WARNING machine shapes differ (baseline %s vs current %s); "+
				"nothing is comparable, gate skipped — refresh the baseline from a CI artifact\n",
			base.shape(), cur.shape())
		return
	}
	if len(regressed) > 0 {
		for _, r := range regressed {
			if r.Regression {
				fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.0f -> %.0f ns/op (%+.1f%%)\n",
					r.Key, r.Base, r.Cur, r.DeltaPct)
			}
			if r.AllocsRegression {
				fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.0f -> %.0f allocs/op (%s)\n",
					r.Key, *r.BaseAllocs, *r.CurAllocs, allocsDeltaLabel(r.AllocsDeltaPct))
			}
			for _, e := range r.Extras {
				if e.Regression {
					fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s: %.3g -> %.3g %s (%+.1f%%)\n",
						r.Key, e.Base, e.Cur, e.Unit, e.DeltaPct)
				}
			}
		}
		os.Exit(1)
	}
}

func allocsDeltaLabel(pct float64) string {
	if math.IsInf(pct, 1) {
		return "zero-alloc baseline regressed"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
