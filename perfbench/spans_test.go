package main

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{ten, 0.50, 5},  // rank round(5.0) = 5
		{ten, 0.55, 6},  // rank round(5.5) = 6
		{ten, 0.99, 10}, // rank round(9.9) = 10
		{ten, 0.999, 10},
		{ten, 0, 1}, // clamped to the first rank
		{[]float64{7}, 0.5, 7},
		{nil, 0.5, 0},
	} {
		if got := percentile(c.vals, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.vals, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	vals := []float64{3, 1, 2}
	if got := median(vals); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if vals[0] != 3 {
		t.Errorf("median reordered its input: %v", vals)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
}

// TestSpansSubtractChildTime drives the span stack with a scripted clock:
// each clock read returns the next instant of the script.
func TestSpansSubtractChildTime(t *testing.T) {
	script := []int64{0, 2, 3, 5, 7, 8, 9, 10}
	i := 0
	sp := newSpans(func() int64 { v := script[i]; i++; return v })

	sp.begin(bucketStep)             // 0
	sp.begin(bucketSubmit)           // 2
	sp.begin(bucketClouds)           // 3
	if self := sp.end(); self != 2 { // 5: no children
		t.Errorf("innermost self = %d, want 2", self)
	}
	if self := sp.end(); self != 3 { // 7: 5 long, 2 of it in the child
		t.Errorf("middle self = %d, want 3", self)
	}
	sp.begin(bucketLaunch)                        // 8
	sp.end()                                      // 9
	if self := sp.endAs(bucketCycle); self != 4 { // 10: 10 long, 5+1 in children
		t.Errorf("outer self = %d, want 4", self)
	}

	want := map[bucket]int64{bucketClouds: 2, bucketSubmit: 3, bucketLaunch: 1, bucketCycle: 4}
	var total int64
	for b, v := range sp.self {
		total += v
		if v != want[bucket(b)] {
			t.Errorf("bucket %d self = %d, want %d", b, v, want[bucket(b)])
		}
	}
	if total != 10 {
		t.Errorf("self times sum to %d, want the outer span's 10", total)
	}
	if sp.calls[bucketStep] != 0 || sp.calls[bucketCycle] != 1 {
		t.Errorf("endAs booked the call to %v, want the cycle bucket", sp.calls)
	}
}

func TestClassifyStep(t *testing.T) {
	for _, c := range []struct {
		injected, completed bool
		cycles              int
		want                stepKind
	}{
		{true, false, 0, stepInject},
		{false, true, 0, stepComplete},
		{false, false, 1, stepCycle},
		{false, false, 0, stepOther},
	} {
		if got := classifyStep(c.injected, c.completed, c.cycles); got != c.want {
			t.Errorf("classifyStep(%v, %v, %d) = %s, want %s",
				c.injected, c.completed, c.cycles, stepKindNames[got], stepKindNames[c.want])
		}
	}
}

// tinyTrace is a hand-written trace that touches every event kind the
// traced driver handles.
func tinyTrace() *workload.Trace {
	s := int64(sim.Second)
	submit := func(at int64, tenant, name string, workers int, est float64, spot bool) workload.Event {
		ev := workload.Event{At: at, Kind: workload.KindSubmit, Tenant: tenant, Name: name,
			Workers: workers, Cores: 1, EstimateSeconds: est}
		if spot {
			ev.Spot, ev.Bid = true, 0.05
		}
		return ev
	}
	return &workload.Trace{
		Header: workload.Header{Version: workload.TraceVersion, Seed: 7,
			Tenants: []workload.Tenant{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}}},
		Events: []workload.Event{
			submit(0, "a", "a-1", 8, 100, false),
			submit(0, "b", "b-1", 4, 50, true),
			{At: 5 * s, Kind: workload.KindDeployFault, Cloud: "cloud0", Strikes: 1},
			submit(10*s, "a", "a-2", 200, 300, false),
			{At: 20 * s, Kind: workload.KindRevoke, Cloud: "cloud0"},
			{At: 30 * s, Kind: workload.KindOutage, Cloud: "cloud1"},
			{At: 40 * s, Kind: workload.KindOutage, Cloud: "cloud2", Partial: 16},
			{At: 45 * s, Kind: workload.KindDegrade, Cloud: "cloud0", Peer: "cloud3", Factor: 0.25},
			submit(50*s, "b", "b-2", 2, 20, false),
			{At: 90 * s, Kind: workload.KindRestore, Cloud: "cloud1"},
			{At: 95 * s, Kind: workload.KindRestore, Cloud: "cloud2"},
			{At: 99 * s, Kind: workload.KindDegrade, Cloud: "cloud0", Peer: "cloud3", Factor: 1},
		},
	}
}

func TestTracedReplayMatchesReplay(t *testing.T) {
	traces := map[string]*workload.Trace{"tiny": tinyTrace()}
	for _, w := range workloads {
		w.jobsPerTrace = 300
		tr, _, err := prepare(w, 3, 4)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		traces[w.name] = tr
	}
	for name, tr := range traces {
		want, err := workload.Replay(tr, replayConfig())
		if err != nil {
			t.Fatalf("%s: Replay: %v", name, err)
		}
		st := newTraceStats()
		got, err := tracedReplay(tr, st)
		if err != nil {
			t.Fatalf("%s: tracedReplay: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: traced %+v\nwant     %+v", name, got, want)
		}
		instants := map[int64]bool{}
		for _, ev := range tr.Events {
			instants[ev.At] = true
		}
		if st.steps[stepInject] != int64(len(instants)) {
			t.Errorf("%s: %d inject steps, want one per distinct instant (%d)",
				name, st.steps[stepInject], len(instants))
		}
		if st.steps[stepComplete] != int64(want.Completed) {
			t.Errorf("%s: %d completion steps, want %d", name, st.steps[stepComplete], want.Completed)
		}
		if st.steps[stepCycle] == 0 || st.steps[stepCycle] != st.cycles {
			t.Errorf("%s: %d cycle steps, scheduler ran %d cycles", name, st.steps[stepCycle], st.cycles)
		}
		if st.replayRecs == 0 || st.journalOps["lease"] == 0 {
			t.Errorf("%s: journal recorded %d transitions (%v)", name, st.replayRecs, st.journalOps)
		}
	}
}

func TestTinyTraceExercisesFaultPaths(t *testing.T) {
	st := newTraceStats()
	res, err := tracedReplay(tinyTrace(), st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 || res.LaunchRetries == 0 || st.faultCalls == 0 || st.bandwidthCalls == 0 {
		t.Errorf("tiny trace missed a fault path: %+v, %d fault calls, %d bandwidth calls",
			res, st.faultCalls, st.bandwidthCalls)
	}
}
