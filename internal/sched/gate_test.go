package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// checkDemandHistogram recomputes every tenant's demand histogram from its
// queue by brute force and fails on any difference from the maintained one:
// the same distinct demands in ascending order, the same counts, and the
// same minimum. External jobs count as demand 0.
func checkDemandHistogram(t *testing.T, s *Scheduler) {
	t.Helper()
	for _, tn := range s.tenantList {
		counts := map[int]int{}
		want := 0
		for i, j := range tn.queue {
			c := j.Cores()
			if j.Spec.Run != nil {
				c = 0
			}
			counts[c]++
			if i == 0 || c < want {
				want = c
			}
		}
		if len(tn.demand) != len(counts) {
			t.Fatalf("cycle %d: tenant %s histogram has %d buckets, queue has %d distinct demands",
				s.cycleNum, tn.Name, len(tn.demand), len(counts))
		}
		for i, d := range tn.demand {
			if i > 0 && d.cores <= tn.demand[i-1].cores {
				t.Fatalf("cycle %d: tenant %s histogram not ascending: %v", s.cycleNum, tn.Name, tn.demand)
			}
			if d.n != counts[d.cores] {
				t.Fatalf("cycle %d: tenant %s has %d queued jobs of %d cores, histogram says %d",
					s.cycleNum, tn.Name, counts[d.cores], d.cores, d.n)
			}
		}
		// The first bucket is the minimum the gate reads.
		if len(tn.demand) > 0 && tn.demand[0].cores != want {
			t.Fatalf("cycle %d: tenant %s min demand %d, queue minimum %d",
				s.cycleNum, tn.Name, tn.demand[0].cores, want)
		}
	}
}

// auditDemandEachCycle runs checkDemandHistogram after every scheduling
// cycle s runs from now on.
func auditDemandEachCycle(t *testing.T, s *Scheduler) {
	cycle := s.cycleFn
	s.cycleFn = func() {
		cycle()
		checkDemandHistogram(t, s)
	}
}

// traceEvents parses a JSONL decision trace (the lower-case keys match the
// TraceEvent fields case-insensitively).
func traceEvents(t *testing.T, trace []byte) []obs.TraceEvent {
	t.Helper()
	var out []obs.TraceEvent
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev obs.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

// gateScenario is a 16-core federation (two 8-core clouds) with a 12-core
// holder running until t≈1000 s. At t=1 s tenant a-wide queues a 16-core
// head and two 8-core jobs, and tenant b-narrow three 2-core jobs; extra
// is appended to a-wide's queue. Returns the traced scheduler after the
// run drains, with the histogram audited after every cycle.
func gateScenario(t *testing.T, extra *JobSpec) (*Scheduler, []obs.TraceEvent) {
	t.Helper()
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	b.AddCloud("c1", 8, 1, 0.10)
	tr := obs.NewTracer(1 << 10)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{Trace: tr})
	auditDemandEachCycle(t, s)
	submitN(t, s, "hold", 1, JobSpec{Name: "holder", Workers: 6, CoresPerWorker: 2, EstimateSeconds: 1000})
	k.RunUntil(1 * sim.Second)
	submitN(t, s, "a-wide", 1, JobSpec{Name: "W1", Workers: 8, CoresPerWorker: 2, EstimateSeconds: 100})
	submitN(t, s, "a-wide", 2, JobSpec{Name: "W8", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
	if extra != nil {
		spec := *extra
		spec.Tenant = "a-wide"
		if _, err := s.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	submitN(t, s, "b-narrow", 3, JobSpec{Name: "N", Workers: 1, CoresPerWorker: 2, EstimateSeconds: 100})
	k.Run()
	return s, traceEvents(t, buf.Bytes())
}

// TestTenantGateSkipsWideTenant: behind a-wide's blocked 16-core head, its
// 8-core jobs cannot fit the 4 free cores, so the gate skips a-wide's queue
// whole while b-narrow backfills. Every later blocked cycle gates whichever
// queue cannot fit; the dispatch sequence is the one full visits produce.
func TestTenantGateSkipsWideTenant(t *testing.T) {
	s, evs := gateScenario(t, nil)
	if got := s.Completed(); got != 7 {
		t.Fatalf("completed %d of 7 jobs", got)
	}
	var dispatches, gates []string
	blockedW8 := 0
	for _, ev := range evs {
		switch ev.Kind {
		case "dispatch", "dispatch_backfill":
			dispatches = append(dispatches, ev.Kind+":"+ev.Job)
		case "gate":
			gates = append(gates, fmt.Sprintf("c%d:%s:min%d:free%d", ev.Cycle, ev.Tenant, ev.Workers, ev.Cores))
		case "block":
			if ev.Job == "J3" || ev.Job == "J4" {
				blockedW8++
			}
		}
	}
	// J1 holder; J2 W1 (16 cores), J3/J4 W8; J5–J7 the narrow jobs.
	wantDispatches := []string{
		"dispatch:J1",
		"dispatch_backfill:J5", "dispatch_backfill:J6", // t=1: 4 free cores behind W1's reservation
		"dispatch_backfill:J7", // t≈101: the first two narrow jobs hand 4 cores back
		"dispatch:J2",          // t≈1000: the holder drains, the head starts
		"dispatch:J3", "dispatch:J4",
	}
	// Cycle 2 (t=1): a-wide's J3/J4 need 8 of 4 free cores; after J5/J6
	// backfill, b-narrow's J7 needs 2 of 0. Cycles 3 and 4 (narrow
	// completions): a-wide again, 4 free. Cycle 5 (t≈1000): J2 took all 16
	// cores and J3 reserved, so J4 needs 8 of 0.
	wantGates := []string{
		"c2:a-wide:min8:free4", "c2:b-narrow:min2:free0",
		"c3:a-wide:min8:free4",
		"c4:a-wide:min8:free4",
		"c5:a-wide:min8:free0",
	}
	if fmt.Sprint(dispatches) != fmt.Sprint(wantDispatches) {
		t.Errorf("dispatch sequence %v, want %v", dispatches, wantDispatches)
	}
	if fmt.Sprint(gates) != fmt.Sprint(wantGates) {
		t.Errorf("gate events %v, want %v", gates, wantGates)
	}
	if got, want := s.m.tenantGateSkips.Value(), int64(2+1+2+2+1); got != want {
		t.Errorf("tenant gate skips = %d, want %d", got, want)
	}
	// Ungated, J3 and J4 would each emit a block event in cycles 2–4.
	if blockedW8 != 1 {
		t.Errorf("the 8-core jobs emitted %d block events, want 1 (J3 as cycle 5's reservation head)", blockedW8)
	}
	if s.m.jobsExamined.Value() == 0 || s.m.placementFailures.Value() == 0 {
		t.Errorf("scan counters not booked: examined=%d placement failures=%d",
			s.m.jobsExamined.Value(), s.m.placementFailures.Value())
	}
}

// TestTenantGateNeverHoldsExternalJobs: an external job queued behind
// a-wide's blocked head runs on capacity its caller owns, so it counts as
// demand 0 — the gate never closes a-wide's queue, and the external job
// dispatches in the very cycle the head reserves.
func TestTenantGateNeverHoldsExternalJobs(t *testing.T) {
	ran := false
	s, evs := gateScenario(t, &JobSpec{Name: "E", Workers: 4, CoresPerWorker: 1, EstimateSeconds: 50,
		Run: func(done func(error)) {
			ran = true
			done(nil)
		}})
	if !ran {
		t.Fatal("external job never ran")
	}
	var reserveCycle, extCycle int64 = -1, -1
	for _, ev := range evs {
		switch {
		case ev.Kind == "reserve" && ev.Job == "J2" && reserveCycle < 0:
			reserveCycle = ev.Cycle
		case ev.Kind == "dispatch" && ev.Job == "J5":
			extCycle = ev.Cycle
		case ev.Kind == "gate" && ev.Tenant == "a-wide" && ev.Cycle == reserveCycle:
			t.Errorf("a-wide gated in cycle %d with an external job queued", ev.Cycle)
		}
	}
	if reserveCycle < 0 || extCycle != reserveCycle {
		t.Fatalf("external job dispatched in cycle %d, head reserved in cycle %d", extCycle, reserveCycle)
	}
	if got := s.Completed(); got != 8 {
		t.Fatalf("completed %d of 8 jobs", got)
	}
}

// TestDemandHistogramSurvivesLaunchRetry: transient launch failures requeue
// jobs mid-cycle (requeue's sorted insert) and redispatch them after a
// backoff (popQueued); the histogram stays exact after every cycle.
func TestDemandHistogramSurvivesLaunchRetry(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("a", 16, 1, 0.10)
	s := New(b, Config{})
	auditDemandEachCycle(t, s)
	s.Start()
	b.FailNextLaunches("a", 3)
	submitN(t, s, "t1", 2, JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: 30})
	submitN(t, s, "t1", 2, JobSpec{Workers: 3, CoresPerWorker: 2, EstimateSeconds: 30})
	submitN(t, s, "t2", 3, JobSpec{Workers: 4, CoresPerWorker: 2, EstimateSeconds: 30})
	k.Run()
	if got := s.LaunchRetries(); got != 3 {
		t.Fatalf("LaunchRetries=%d, want 3", got)
	}
	if got := s.Completed(); got != 7 {
		t.Fatalf("completed %d of 7 jobs", got)
	}
	checkDemandHistogram(t, s)
}
