package pnn

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pnn/internal/query"
	"pnn/internal/shard"
)

// fakeView is a scripted View over a published version vector that
// write advances: every group answers each item with one result naming
// the group's window start, gathered at the vector vector(ts, call)
// returns for the call-th run (from 1) of the group starting at ts —
// by default the published one. A group whose window starts at panicTs
// panics while panicking is set.
type fakeView struct {
	mu        sync.Mutex
	calls     map[int]int
	pub       []int64
	vector    func(ts, call int) []int64
	panicTs   int
	panicking bool
}

func newFakeView() *fakeView {
	v := &fakeView{calls: map[int]int{}, pub: []int64{1, 1}}
	v.vector = func(int, int) []int64 { return slices.Clone(v.pub) }
	return v
}

// write publishes the next version and sets whether group panicTs
// panics from now on.
func (v *fakeView) write(panicking bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pub[0]++
	v.panicking = panicking
}

func composite(vec []int64) VersionInfo {
	vi := VersionInfo{Vector: vec}
	for _, x := range vec {
		vi.Max += x
	}
	vi.Max -= int64(len(vec) - 1)
	return vi
}

func (v *fakeView) RunGroup(spec shard.GroupSpec, items []shard.GroupItem) ([]shard.GroupAnswer, query.Stats, shard.Influence, VersionInfo, error) {
	v.mu.Lock()
	v.calls[spec.Ts]++
	call, panicking := v.calls[spec.Ts], v.panicking && spec.Ts == v.panicTs
	vec := v.vector(spec.Ts, call)
	v.mu.Unlock()
	if panicking {
		panic("scripted failure")
	}
	answers := make([]shard.GroupAnswer, len(items))
	for i := range answers {
		answers[i].Results = []shard.Result{{ID: spec.Ts, Prob: 1}}
	}
	inf := shard.Influence{IDs: []int{spec.Ts}, PruneDist: make([]float64, spec.Te-spec.Ts+1)}
	return answers, query.Stats{Worlds: 10, SamplerBuilds: 1}, inf, composite(vec), nil
}

func (v *fakeView) Version() VersionInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	return composite(slices.Clone(v.pub))
}

func (v *fakeView) callsAt(ts int) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.calls[ts]
}

func fakeFront(t *testing.T, v *fakeView) *Front {
	f := NewFront(func() View { return v }, 1)
	t.Cleanup(f.CloseSubscriptions)
	return f
}

// windowReq is a valid request whose window starts at ts: distinct ts
// values form distinct units with or without world sharing.
func windowReq(ts int) Request {
	return Request{Semantics: Exists, Query: AtPoint(Point{X: 0.5, Y: 0.5}), Ts: ts, Te: ts + 2, Tau: 0.1, Seed: int64(ts)}
}

func wantPanicErr(t *testing.T, what string, v *fakeView, resp Response) {
	t.Helper()
	if resp.Err == nil || !strings.Contains(resp.Err.Error(), "panicked") {
		t.Fatalf("%s: err = %v, want the contained panic", what, resp.Err)
	}
	if want := v.Version(); !reflect.DeepEqual(resp.Version, want) {
		t.Errorf("%s: version = %+v, want the view's %+v", what, resp.Version, want)
	}
}

func wantAnswer(t *testing.T, what string, resp Response, ts int) {
	t.Helper()
	if resp.Err != nil || len(resp.Results) != 1 || resp.Results[0].ObjectID != ts {
		t.Fatalf("%s: got %+v (err %v), want the answer of window %d", what, resp.Results, resp.Err, ts)
	}
}

// TestFrontContainsPanics: a panicking evaluation fails only its own
// requests — one-shot, solo and shared batch units, the first and a
// later standing-group evaluation — and the process keeps serving.
func TestFrontContainsPanics(t *testing.T) {
	v := newFakeView()
	v.panicTs, v.panicking = 13, true
	f := fakeFront(t, v)

	wantPanicErr(t, "Run", v, f.Run(windowReq(13)))
	for _, share := range []bool{false, true} {
		out, _ := f.RunBatchStats([]Request{windowReq(1), windowReq(13), windowReq(2)},
			BatchOptions{Workers: 2, ShareWorlds: share, SharedSeed: 5})
		wantAnswer(t, "batch unit 0", out[0], 1)
		wantPanicErr(t, "batch unit 1", v, out[1])
		wantAnswer(t, "batch unit 2", out[2], 2)
	}

	next := func(s *Subscription) Response {
		t.Helper()
		select {
		case e := <-s.Events():
			return e.Payload.(Response)
		case <-time.After(5 * time.Second):
			t.Fatal("no subscription event")
			return Response{}
		}
	}
	s, err := f.Subscribe(windowReq(13), Delivery{})
	if err != nil {
		t.Fatal(err)
	}
	wantPanicErr(t, "first standing evaluation", v, next(s))

	touchAll := func(Query, int, int, []float64) bool { return true }
	v.write(false)
	f.NotifyWrite(1, touchAll)
	wantAnswer(t, "recovered standing evaluation", next(s), 13)
	v.write(true)
	f.NotifyWrite(1, touchAll)
	wantPanicErr(t, "later standing evaluation", v, next(s))
}

// TestFrontBatchReconciliation scripts the version vectors units gather
// at: equal vectors run each unit once, a stale unit heals on its one
// retry, and a unit still stale after it fails with ErrPeerUnavailable
// stamped with its own vector.
func TestFrontBatchReconciliation(t *testing.T) {
	reqs := []Request{windowReq(1), windowReq(2), windowReq(3)}
	for _, share := range []bool{false, true} {
		opts := BatchOptions{Workers: 2, ShareWorlds: share, SharedSeed: 5}

		v := newFakeView()
		out, _ := fakeFront(t, v).RunBatchStats(reqs, opts)
		for i, ts := range []int{1, 2, 3} {
			wantAnswer(t, "equal vectors", out[i], ts)
			if n := v.callsAt(ts); n != 1 {
				t.Errorf("share=%v equal vectors: unit %d ran %d times, want 1", share, ts, n)
			}
		}

		newest := []int64{2, 2, 3}
		v = newFakeView()
		v.vector = func(ts, call int) []int64 {
			if ts == 2 && call == 1 {
				return []int64{2, 1, 3}
			}
			return newest
		}
		out, _ = fakeFront(t, v).RunBatchStats(reqs, opts)
		for i, ts := range []int{1, 2, 3} {
			wantAnswer(t, "healed", out[i], ts)
			if !reflect.DeepEqual(out[i].Version, composite(newest)) {
				t.Errorf("share=%v healed: unit %d version %+v, want %+v", share, ts, out[i].Version, composite(newest))
			}
		}
		if a, b, c := v.callsAt(1), v.callsAt(2), v.callsAt(3); a != 1 || b != 2 || c != 1 {
			t.Errorf("share=%v healed: runs per unit = %d/%d/%d, want 1/2/1", share, a, b, c)
		}

		stale := []int64{2, 1, 3}
		v = newFakeView()
		v.vector = func(ts, _ int) []int64 {
			if ts == 2 {
				return stale
			}
			return newest
		}
		out, _ = fakeFront(t, v).RunBatchStats(reqs, opts)
		wantAnswer(t, "still stale, unit 1", out[0], 1)
		wantAnswer(t, "still stale, unit 3", out[2], 3)
		if !errors.Is(out[1].Err, ErrPeerUnavailable) || out[1].Results != nil {
			t.Fatalf("share=%v still stale: unit 2 = %+v, want a bare ErrPeerUnavailable", share, out[1])
		}
		if want := (VersionInfo{Vector: stale, Max: 2 + 1 + 3 - 2}); !reflect.DeepEqual(out[1].Version, want) {
			t.Errorf("share=%v still stale: version %+v, want its own %+v", share, out[1].Version, want)
		}
		if n := v.callsAt(2); n != 2 {
			t.Errorf("share=%v still stale: unit 2 ran %d times, want 2", share, n)
		}
	}
}

// TestWorldFloorReported: every one-shot and batch path reports the
// adaptive floor a request ran with, and none reports one for a
// fixed-budget request.
func TestWorldFloorReported(t *testing.T) {
	_, proc, q := batchDB(t, 300)
	adaptive := Request{Semantics: ForAll, Query: q, Ts: 1, Te: 6, Tau: 0.3, Seed: 5,
		Confidence: Confidence{Eps: 0.05, MaxSamples: 2000}, MinWorlds: 512}
	fixed := adaptive
	fixed.Confidence = Confidence{}
	check := func(path string, resp Response, want int) {
		t.Helper()
		if resp.Err != nil {
			t.Fatalf("%s: %v", path, resp.Err)
		}
		if resp.Stats.WorldFloor != want {
			t.Errorf("%s: WorldFloor = %d, want %d", path, resp.Stats.WorldFloor, want)
		}
	}
	check("Run", proc.Run(adaptive), 512)
	check("Run fixed", proc.Run(fixed), 0)
	for _, share := range []bool{false, true} {
		out, _ := proc.RunBatchStats([]Request{adaptive, fixed}, BatchOptions{ShareWorlds: share, SharedSeed: 3})
		check("batch adaptive", out[0], 512)
		check("batch fixed", out[1], 0)
	}
}
