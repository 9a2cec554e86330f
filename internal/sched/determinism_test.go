package sched

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Same-seed determinism tests over workloads that exercise every scheduler
// phase at once (placement, reservation, backfill, preemption, elastic
// growth, consolidation, fault handling), plus the external-driver -race
// stress through Sync.

// mixedWorkload drives one seeded federation — 20 clouds and 300 tenants —
// with wide jobs that block, reserve, backfill, preempt, consolidate, and
// chase deadlines. With storm
// set, a deterministic outage storm rides along: two full crashes, a flap
// episode deep enough to quarantine, and a transient deploy-fault burst —
// the degraded-mode paths must stay byte-deterministic too. Every tenant's
// demand histogram is checked against its queue after every cycle. Returns
// the decision trace bytes and the final shares.
func mixedWorkload(t *testing.T, storm bool) ([]byte, map[string]float64) {
	t.Helper()
	k := sim.NewKernel(7)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1.0+0.05*float64(c%5), 0.08+0.01*float64(c%7))
	}
	b.UseLogNormalOverrun(0, 0.4)
	tr := obs.NewTracer(1 << 16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{
		EnablePreemption:    true,
		EnableConsolidation: true,
		UsageHalfLife:       600 * sim.Second,
		Trace:               tr,
	})
	auditDemandEachCycle(t, s)
	s.Start()
	if storm {
		outage := func(at sim.Time, cloud string, dur sim.Time) {
			k.At(at, func() {
				if _, err := b.FailCloud(cloud); err != nil {
					t.Errorf("fail %s: %v", cloud, err)
				}
				s.Notify(Event{Kind: EventCloudFailed, Cloud: cloud})
			})
			k.At(at+dur, func() {
				if err := b.RestoreCloud(cloud); err != nil {
					t.Errorf("restore %s: %v", cloud, err)
				}
				s.Notify(Event{Kind: EventCloudRestored, Cloud: cloud})
			})
		}
		outage(600*sim.Second, "c03", 600*sim.Second)
		outage(2000*sim.Second, "c07", 500*sim.Second)
		// Flap c05 three times inside the flap window: the restore past the
		// threshold quarantines it behind jittered backoff.
		outage(3000*sim.Second, "c05", 40*sim.Second)
		outage(3080*sim.Second, "c05", 40*sim.Second)
		outage(3160*sim.Second, "c05", 40*sim.Second)
		// Deploy-fault bursts: the next launches touching c02 fail
		// transiently and exercise the retry/backoff path. Three strikes at
		// most per burst — within one job's retry budget even if a single
		// job eats the whole burst.
		k.At(500*sim.Second, func() { b.FailNextLaunches("c02", 3) })
		k.At(4000*sim.Second, func() { b.FailNextLaunches("c02", 3) })
	}
	for ti := 0; ti < 300; ti++ {
		name := fmt.Sprintf("t%03d", ti)
		s.AddTenant(name, 1+float64(ti%3))
		w := 2
		var deadline sim.Time
		maxExtra := 0
		switch ti % 9 {
		case 5:
			w = 24 // wider than any cloud: spanning plans, blocks, reservations
		case 2:
			w = 6 // spans under fragmentation yet fits one cloud: consolidation bait
		case 7:
			// An unreachable deadline: the elastic pass grows the gang to the
			// cap, then shrinks it when the map phase drains.
			deadline = sim.Time(100+ti) * sim.Second
			maxExtra = 2
		}
		submitN(t, s, name, 2, JobSpec{
			Workers: w, CoresPerWorker: 2,
			EstimateSeconds: float64(40 + ti%60),
			Deadline:        deadline,
			MaxExtraWorkers: maxExtra,
		})
	}
	k.RunUntil(60000 * sim.Second)
	if got := s.Completed(); got != 600 {
		t.Fatalf("completed %d of 600 jobs", got)
	}
	if tr.Len() == 0 {
		t.Fatal("run emitted no trace events")
	}
	return buf.Bytes(), s.Shares()
}

// tracePricesAndStarts pulls the float-heavy decisions out of a decision
// trace: every eviction price (preempt and forced_preempt events) and every
// reserved start instant (reserve events), in emission order.
func tracePricesAndStarts(t *testing.T, trace []byte) ([]float64, []int64) {
	t.Helper()
	var prices []float64
	var starts []int64
	for _, line := range bytes.Split(trace, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev struct {
			Kind  string  `json:"kind"`
			Price float64 `json:"price"`
			Start int64   `json:"start"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		switch ev.Kind {
		case "preempt", "forced_preempt":
			prices = append(prices, ev.Price)
		case "reserve":
			starts = append(starts, ev.Start)
		}
	}
	return prices, starts
}

// evictionStormWorkload drives the eviction machinery at scale: two holders pin 208 of 320 cores, a 160-core head blocks
// behind them and reserves, and a swarm of short jobs backfills the slack.
// The second holder and every backfilled small overrun their estimates, so
// the head's reserved start slips recompute after recompute until the
// reservation ages out and chooseVictims prices — and what-if prefix-fits —
// a candidate list of dozens of jobs. Returns the decision trace and the
// eviction count.
func evictionStormWorkload(tb testing.TB) ([]byte, int) {
	k := sim.NewKernel(13)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1, 0.10)
	}
	b.Overrun = func(j *Job) float64 {
		switch j.Spec.Name {
		case "lateholder", "small":
			return 4 // overdue releases: the reserved start slips every recompute
		}
		return 1
	}
	tr := obs.NewTracer(1 << 16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	s := New(b, Config{EnablePreemption: true, Trace: tr})
	s.Start()
	sub := func(tenant string, spec JobSpec) {
		spec.Tenant = tenant
		if _, err := s.Submit(spec); err != nil {
			tb.Fatalf("submit %s: %v", tenant, err)
		}
	}
	// Staged arrival, or the head would grab the idle federation at t=0: the
	// holders dispatch first (208 of 320 cores), the head arrives at t=1 and
	// blocks behind them with a reservation at the honest holder's ~600 s
	// release, and the smalls arrive at t=2 to backfill the remaining slack
	// under that far-future reservation.
	s.AddTenant("hold", 1)
	sub("hold", JobSpec{Name: "holder", Workers: 72, CoresPerWorker: 2, EstimateSeconds: 600})
	sub("hold", JobSpec{Name: "lateholder", Workers: 32, CoresPerWorker: 2, EstimateSeconds: 600})
	k.RunUntil(1 * sim.Second)
	s.AddTenant("head", 1)
	// 220 cores — more than the two holders' 208 — so the reserved plan must
	// also claim slack on the smalls' clouds: overrunning smalls feed the
	// reservation and the forced-preempt pass reclaims them at elastic ticks.
	sub("head", JobSpec{Name: "head", Workers: 110, CoresPerWorker: 2, EstimateSeconds: 300})
	k.RunUntil(2 * sim.Second)
	total := 3
	for ti := 0; ti < 40; ti++ {
		name := fmt.Sprintf("s%02d", ti)
		s.AddTenant(name, 1)
		for n := 0; n < 4; n++ {
			sub(name, JobSpec{Name: "small", Workers: 2, CoresPerWorker: 2,
				EstimateSeconds: float64(30 + ti%20)})
			total++
		}
	}
	k.RunUntil(40000 * sim.Second)
	if got := s.Completed(); got != total {
		tb.Fatalf("completed %d of %d jobs", got, total)
	}
	return buf.Bytes(), s.Preemptions()
}

// traceDivergence returns the first byte offset at which two traces differ.
func traceDivergence(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestSameSeedDeterminism runs the mixed workload twice with the same seed:
// the decision traces must be byte-identical, the eviction prices and
// reserved starts element-wise equal, and the delivered shares
// bit-identical. Any map-iteration order or other hidden nondeterminism
// leaking into a decision shows up here.
func TestSameSeedDeterminism(t *testing.T) {
	trace1, shares1 := mixedWorkload(t, false)
	if !bytes.Contains(trace1, []byte(`"kind":"dispatch"`)) {
		t.Fatal("trace has no dispatch events; workload exercised nothing")
	}
	// Evictions and reservations must both have fired, or the price and
	// start comparisons below prove nothing about them.
	prices1, starts1 := tracePricesAndStarts(t, trace1)
	if len(prices1) == 0 || len(starts1) == 0 {
		t.Fatalf("workload produced %d eviction prices and %d reservations; both must be exercised",
			len(prices1), len(starts1))
	}
	trace2, shares2 := mixedWorkload(t, false)
	// Implied by the byte compare below, but asserted separately so a
	// divergence names the decision that moved.
	prices2, starts2 := tracePricesAndStarts(t, trace2)
	if len(prices2) != len(prices1) || len(starts2) != len(starts1) {
		t.Fatalf("rerun: %d prices/%d starts vs first run %d/%d",
			len(prices2), len(starts2), len(prices1), len(starts1))
	}
	for i, want := range prices1 {
		if prices2[i] != want {
			t.Fatalf("rerun: eviction price #%d = %v, first run %v", i, prices2[i], want)
		}
	}
	for i, want := range starts1 {
		if starts2[i] != want {
			t.Fatalf("rerun: reservation start #%d = %v, first run %v", i, starts2[i], want)
		}
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("rerun trace diverges at byte %d (lengths %d vs %d)",
			traceDivergence(trace1, trace2), len(trace1), len(trace2))
	}
	if len(shares2) != len(shares1) {
		t.Fatalf("rerun: %d share entries vs %d", len(shares2), len(shares1))
	}
	// Bit-identical, not merely close: the raw aggregates accumulate in
	// running-list order and the normalizing total sums in name-sorted
	// tenant order.
	for name, want := range shares1 {
		if got := shares2[name]; got != want {
			t.Fatalf("rerun: share[%s] = %v, first run %v", name, got, want)
		}
	}
}

// TestSameSeedDeterminismUnderOutageStorm repeats the same-seed check with
// the fault storm riding along: outage requeues, quarantine jitter, and
// launch-retry backoff all draw from kernel-ordered state, so the decision
// trace — outage, requeue, and restore events included — must stay
// byte-identical across runs.
func TestSameSeedDeterminismUnderOutageStorm(t *testing.T) {
	trace1, shares1 := mixedWorkload(t, true)
	for _, kind := range []string{`"kind":"outage"`, `"kind":"requeue"`, `"kind":"restore"`} {
		if !bytes.Contains(trace1, []byte(kind)) {
			t.Fatalf("storm trace has no %s events; the fault paths did not fire", kind)
		}
	}
	trace2, shares2 := mixedWorkload(t, true)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("rerun storm trace diverges at byte %d (lengths %d vs %d)",
			traceDivergence(trace1, trace2), len(trace1), len(trace2))
	}
	for name, want := range shares1 {
		if got := shares2[name]; got != want {
			t.Fatalf("rerun: share[%s] = %v, first run %v", name, got, want)
		}
	}
}

// TestEvictionStormDeterminism pins the eviction pricer and the what-if
// prefix fit at a candidate scale the mixed workload does not reach:
// evictions and forced preemptions actually fire, and the decision trace —
// victim sets, prices, and the head's post-eviction dispatch included — is
// byte-identical across two same-seed runs.
func TestEvictionStormDeterminism(t *testing.T) {
	trace1, evictions1 := evictionStormWorkload(t)
	if evictions1 == 0 || !bytes.Contains(trace1, []byte(`"kind":"preempt"`)) {
		t.Fatal("storm produced no evictions; the prefix-fit path was not exercised")
	}
	if !bytes.Contains(trace1, []byte(`"kind":"forced_preempt"`)) {
		t.Fatal("storm produced no forced preemptions; the elastic force path was not exercised")
	}
	trace2, evictions2 := evictionStormWorkload(t)
	if evictions2 != evictions1 {
		t.Fatalf("rerun: %d evictions vs %d", evictions2, evictions1)
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("rerun storm trace diverges at byte %d (lengths %d vs %d)",
			traceDivergence(trace1, trace2), len(trace1), len(trace2))
	}
}

// TestExternalDriverRace is the -race stress for external drivers: the
// kernel steps and all external Submit/Poll/Shares traffic serialize
// through Sync, and raw stat reads (atomic counters) hammer from another
// goroutine. Any stat accessor that stops being atomic, or any external
// path that bypasses Sync, surfaces here under -race.
func TestExternalDriverRace(t *testing.T) {
	k := sim.NewKernel(9)
	b := NewSimBackend(k)
	for c := 0; c < 20; c++ {
		b.AddCloud(fmt.Sprintf("c%02d", c), 16, 1, 0.10)
	}
	s := New(b, Config{})
	var ids []string
	s.Sync(func() {
		for ti := 0; ti < 300; ti++ {
			name := fmt.Sprintf("t%03d", ti)
			s.AddTenant(name, 1)
			ids = append(ids, submitN(t, s, name, 2,
				JobSpec{Workers: 2, CoresPerWorker: 2, EstimateSeconds: float64(30 + ti%40)})...)
		}
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // external driver: polls and share reads, serialized via Sync
		defer wg.Done()
		i := 0
		for !stop.Load() {
			s.Sync(func() {
				s.Poll(ids[i%len(ids)])
				s.Shares()
			})
			i++
		}
	}()
	go func() { // atomic stat reads need no Sync
		defer wg.Done()
		sink := 0
		for !stop.Load() {
			sink += s.Cycles() + s.Dispatched() + s.Completed() + s.PlanMemoHits() +
				s.ViewSeals()
		}
		_ = sink
	}()
	for at := sim.Time(0); at < 4000*sim.Second; at += 50 * sim.Second {
		end := at + 50*sim.Second
		s.Sync(func() { k.RunUntil(end) })
	}
	stop.Store(true)
	wg.Wait()
	if got := s.Completed(); got != 600 {
		t.Fatalf("completed %d of 600 jobs", got)
	}
}
