package main

import (
	"strings"
	"testing"
)

func mkFile(procs int, results ...Result) *File {
	return &File{GoOS: "linux", GoArch: "amd64", GoMaxProcs: procs, Results: results}
}

// fp builds the pointer form benchjson uses for recorded allocs/op.
func fp(v float64) *float64 { return &v }

func TestDiffFlagsOnlyRealRegressions(t *testing.T) {
	base := mkFile(4,
		Result{Package: "pnn", Name: "BenchmarkA", NsPerOp: 1000},
		Result{Package: "pnn", Name: "BenchmarkB", NsPerOp: 1000},
		Result{Package: "pnn", Name: "BenchmarkGone", NsPerOp: 50},
	)
	cur := mkFile(4,
		Result{Package: "pnn", Name: "BenchmarkA", NsPerOp: 1200},  // +20%: within threshold
		Result{Package: "pnn", Name: "BenchmarkB", NsPerOp: 1300},  // +30%: regression
		Result{Package: "pnn", Name: "BenchmarkFresh", NsPerOp: 9}, // new
	)
	rows := diff(base, cur, 25, 25)
	byKey := map[string]Row{}
	for _, r := range rows {
		byKey[r.Key] = r
	}
	if r := byKey["pnn BenchmarkA"]; r.Regression || r.Status != "shared" {
		t.Errorf("A = %+v, want shared non-regression", r)
	}
	if r := byKey["pnn BenchmarkB"]; !r.Regression {
		t.Errorf("B = %+v, want regression", r)
	}
	if r := byKey["pnn BenchmarkFresh"]; r.Status != "new" || r.Regression {
		t.Errorf("Fresh = %+v, want new", r)
	}
	if r := byKey["pnn BenchmarkGone"]; r.Status != "removed" || r.Regression {
		t.Errorf("Gone = %+v, want removed", r)
	}
}

func TestDiffImprovementsAndZeroBaseline(t *testing.T) {
	base := mkFile(4,
		Result{Package: "p", Name: "BenchmarkFast", NsPerOp: 1000},
		Result{Package: "p", Name: "BenchmarkZero", NsPerOp: 0},
	)
	cur := mkFile(4,
		Result{Package: "p", Name: "BenchmarkFast", NsPerOp: 10},  // 100x faster
		Result{Package: "p", Name: "BenchmarkZero", NsPerOp: 100}, // undefined delta
	)
	for _, r := range diff(base, cur, 25, 25) {
		if r.Regression {
			t.Errorf("%s flagged as regression: %+v", r.Key, r)
		}
	}
}

func TestDiffMatchesAcrossPackages(t *testing.T) {
	// The same benchmark name in two packages must not be conflated.
	base := mkFile(1,
		Result{Package: "a", Name: "BenchmarkX", NsPerOp: 100},
		Result{Package: "b", Name: "BenchmarkX", NsPerOp: 1000},
	)
	cur := mkFile(1,
		Result{Package: "a", Name: "BenchmarkX", NsPerOp: 100},
		Result{Package: "b", Name: "BenchmarkX", NsPerOp: 2000},
	)
	rows := diff(base, cur, 25, 25)
	regressed := 0
	for _, r := range rows {
		if r.Regression {
			regressed++
			if r.Key != "b BenchmarkX" {
				t.Errorf("wrong benchmark flagged: %+v", r)
			}
		}
	}
	if regressed != 1 {
		t.Errorf("%d regressions, want exactly 1", regressed)
	}
}

func TestDiffAllocRegressions(t *testing.T) {
	base := mkFile(4,
		Result{Package: "pnn", Name: "BenchmarkSteady", NsPerOp: 1000, AllocsPerOp: fp(100)},
		Result{Package: "pnn", Name: "BenchmarkLeaky", NsPerOp: 1000, AllocsPerOp: fp(100)},
		Result{Package: "pnn", Name: "BenchmarkNoData", NsPerOp: 1000},
		Result{Package: "pnn", Name: "BenchmarkZeroBase", NsPerOp: 1000, AllocsPerOp: fp(0)},
	)
	cur := mkFile(4,
		Result{Package: "pnn", Name: "BenchmarkSteady", NsPerOp: 1000, AllocsPerOp: fp(120)},    // +20%: within threshold
		Result{Package: "pnn", Name: "BenchmarkLeaky", NsPerOp: 1000, AllocsPerOp: fp(130)},     // +30%: regression
		Result{Package: "pnn", Name: "BenchmarkNoData", NsPerOp: 1000, AllocsPerOp: fp(999)},    // no baseline data: not gated
		Result{Package: "pnn", Name: "BenchmarkZeroBase", NsPerOp: 1000, AllocsPerOp: fp(1000)}, // measured-zero baseline regressed: absolute gate
	)
	byKey := map[string]Row{}
	for _, r := range diff(base, cur, 25, 25) {
		byKey[r.Key] = r
	}
	if r := byKey["pnn BenchmarkSteady"]; r.Regressed() {
		t.Errorf("Steady = %+v, want within threshold", r)
	}
	if r := byKey["pnn BenchmarkLeaky"]; !r.AllocsRegression || r.Regression || !r.Regressed() {
		t.Errorf("Leaky = %+v, want allocs regression only", r)
	}
	if r := byKey["pnn BenchmarkNoData"]; r.Regressed() {
		t.Errorf("NoData = %+v, want ungated without baseline allocation data", r)
	}
	if r := byKey["pnn BenchmarkZeroBase"]; !r.AllocsRegression {
		t.Errorf("ZeroBase = %+v, want absolute regression: a measured zero-alloc baseline reintroduced allocations", r)
	}
}

func TestDiffZeroAllocBaselineDefended(t *testing.T) {
	// The steady state the kernel targets: 0 allocs/op recorded in the
	// baseline. Staying at zero passes; any growth fails regardless of
	// thresholds; absent current data (a run without -benchmem) stays
	// ungated rather than false-failing.
	base := mkFile(1,
		Result{Package: "p", Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: fp(0)},
		Result{Package: "p", Name: "BenchmarkCold", NsPerOp: 100, AllocsPerOp: fp(0)},
	)
	cur := mkFile(1,
		Result{Package: "p", Name: "BenchmarkHot", NsPerOp: 100, AllocsPerOp: fp(0)},
		Result{Package: "p", Name: "BenchmarkCold", NsPerOp: 100, AllocsPerOp: fp(1)},
	)
	byKey := map[string]Row{}
	for _, r := range diff(base, cur, 25, 1e9) {
		byKey[r.Key] = r
	}
	if r := byKey["p BenchmarkHot"]; r.Regressed() {
		t.Errorf("Hot = %+v, want zero staying zero to pass", r)
	}
	if r := byKey["p BenchmarkCold"]; !r.AllocsRegression {
		t.Errorf("Cold = %+v, want 0 -> 1 allocs/op flagged even with a huge percent threshold", r)
	}
	noData := mkFile(1, Result{Package: "p", Name: "BenchmarkHot", NsPerOp: 100})
	for _, r := range diff(base, noData, 25, 25) {
		if r.Key == "p BenchmarkHot" && r.Regressed() {
			t.Errorf("missing current allocation data must not fail the gate: %+v", r)
		}
	}
}

func TestDiffAllocThresholdIndependent(t *testing.T) {
	// A tight allocation threshold must not inherit the ns/op one.
	base := mkFile(4, Result{Package: "p", Name: "BenchmarkK", NsPerOp: 100, AllocsPerOp: fp(100)})
	cur := mkFile(4, Result{Package: "p", Name: "BenchmarkK", NsPerOp: 100, AllocsPerOp: fp(110)})
	if rows := diff(base, cur, 25, 5); !rows[0].AllocsRegression {
		t.Errorf("+10%% allocs under a 5%% threshold not flagged: %+v", rows[0])
	}
	if rows := diff(base, cur, 5, 25); rows[0].Regressed() {
		t.Errorf("+10%% allocs under a 25%% threshold flagged: %+v", rows[0])
	}
}

func TestTableRendersMarkdown(t *testing.T) {
	rows := diff(
		mkFile(4, Result{Package: "pnn", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(10)}),
		mkFile(4, Result{Package: "pnn", Name: "BenchmarkA", NsPerOp: 150, AllocsPerOp: fp(40)}),
		25, 25)
	md := table(rows)
	if !strings.Contains(md, "| benchmark |") || !strings.Contains(md, "**REGRESSION**") {
		t.Errorf("table missing header or regression marker:\n%s", md)
	}
	if !strings.Contains(md, "+50.0%") || !strings.Contains(md, "+300.0%") {
		t.Errorf("table missing ns/op or allocs delta:\n%s", md)
	}
	if !strings.Contains(md, "allocs/op") {
		t.Errorf("table missing allocation columns:\n%s", md)
	}
}

func TestShapeString(t *testing.T) {
	a := mkFile(4)
	b := mkFile(1)
	if a.shape() == b.shape() {
		t.Error("different GOMAXPROCS must yield different shapes")
	}
	c := mkFile(4)
	c.Shards = 4
	if a.shape() == c.shape() {
		t.Error("different shard configs must yield different shapes")
	}
	d := mkFile(4)
	d.GoVersion = "go1.22.12"
	if a.shape() == d.shape() {
		t.Error("different Go toolchains must yield different shapes")
	}
}

// TestDiffRateMetricsHigherIsBetter pins the direction of rate units:
// a throughput such as MB/s (from b.SetBytes) regresses when it falls,
// not when it rises, while other custom units regress when they grow.
func TestDiffRateMetricsHigherIsBetter(t *testing.T) {
	base := mkFile(1,
		Result{Package: "p", Name: "BenchmarkFaster", NsPerOp: 100, Extra: map[string]float64{"MB/s": 1, "ms/write": 10}},
		Result{Package: "p", Name: "BenchmarkSlower", NsPerOp: 100, Extra: map[string]float64{"MB/s": 4}},
	)
	cur := mkFile(1,
		Result{Package: "p", Name: "BenchmarkFaster", NsPerOp: 100, Extra: map[string]float64{"MB/s": 3, "ms/write": 20}},
		Result{Package: "p", Name: "BenchmarkSlower", NsPerOp: 100, Extra: map[string]float64{"MB/s": 2}},
	)
	got := map[string]bool{}
	for _, r := range diff(base, cur, 25, 25) {
		for _, e := range r.Extras {
			got[r.Key+" "+e.Unit] = e.Regression
		}
	}
	want := map[string]bool{
		"p BenchmarkFaster MB/s":     false,
		"p BenchmarkFaster ms/write": true,
		"p BenchmarkSlower MB/s":     true,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s regression = %v, want %v", k, got[k], w)
		}
	}
}

// TestUntimedKeepsHardwareIndependentGates pins what a CPU mismatch
// withdraws: ns/op and timed custom units (durations, rates) stop
// gating, while allocs/op and count units keep gating.
func TestUntimedKeepsHardwareIndependentGates(t *testing.T) {
	base := mkFile(1, Result{Package: "p", Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: fp(10),
		Extra: map[string]float64{"MB/s": 4, "ms/write": 10, "evals/write": 1}})
	cur := mkFile(1, Result{Package: "p", Name: "BenchmarkA", NsPerOp: 200, AllocsPerOp: fp(20),
		Extra: map[string]float64{"MB/s": 2, "ms/write": 20, "evals/write": 2}})
	rows := diff(base, cur, 25, 25)
	untimed(rows)
	r := rows[0]
	if r.Regression || !r.AllocsRegression || !r.Regressed() {
		t.Fatalf("ns/op regression %v, allocs regression %v, regressed %v; want false, true, true",
			r.Regression, r.AllocsRegression, r.Regressed())
	}
	want := map[string]bool{"MB/s": false, "ms/write": false, "evals/write": true}
	for _, e := range r.Extras {
		if e.Regression != want[e.Unit] {
			t.Errorf("%s regression = %v after untimed, want %v", e.Unit, e.Regression, want[e.Unit])
		}
	}
}

func TestGateMode(t *testing.T) {
	withCPU := func(f *File, cpu string) *File { f.CPU = cpu; return f }
	for _, tc := range []struct {
		name         string
		base, cur    *File
		anyway       bool
		armed, timed bool
	}{
		{"same shape and CPU", withCPU(mkFile(1), "X"), withCPU(mkFile(1), "X"), false, true, true},
		{"other CPU", withCPU(mkFile(1), "X"), withCPU(mkFile(1), "Y"), false, true, false},
		{"baseline without CPU", mkFile(1), withCPU(mkFile(1), "X"), false, true, false},
		{"other shape", withCPU(mkFile(1), "X"), withCPU(mkFile(2), "X"), false, false, false},
		{"gate anyway", withCPU(mkFile(1), "X"), withCPU(mkFile(2), "Y"), true, true, true},
	} {
		armed, timed := gateMode(tc.base, tc.cur, tc.anyway)
		if armed != tc.armed || timed != tc.timed {
			t.Errorf("%s: gateMode = (%v, %v), want (%v, %v)", tc.name, armed, timed, tc.armed, tc.timed)
		}
	}
}

func TestTimedUnit(t *testing.T) {
	for unit, want := range map[string]bool{
		"ms/write": true, "ns/row": true, "s/op": true, "MB/s": true, "ops/s": true,
		"evals/write": false, "worlds/op": false, "subs": false,
	} {
		if got := timedUnit(unit); got != want {
			t.Errorf("timedUnit(%q) = %v, want %v", unit, got, want)
		}
	}
}
