package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/sim"
)

// Tests for the incremental scheduler core: the active/archive job split,
// the maintained release list, and blocked jobs behind the fit prover.

// TestArchiveVisibility: finished jobs move to the archive but stay fully
// visible through Poll and Jobs(), in submission order, alongside active
// ones.
func TestArchiveVisibility(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	var ids []string
	for i := 0; i < 3; i++ {
		// 8 cores each: jobs run strictly one at a time.
		id, err := s.Submit(JobSpec{Tenant: "t", Name: fmt.Sprintf("j%d", i),
			Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	k.RunUntil(150 * sim.Second) // first finished, second running, third queued
	wantStates := []State{Done, Running, Queued}
	for i, id := range ids {
		ji, ok := s.Poll(id)
		if !ok {
			t.Fatalf("job %s (state %v expected) invisible to Poll", id, wantStates[i])
		}
		if ji.State != wantStates[i] {
			t.Errorf("job %s state = %v, want %v", id, ji.State, wantStates[i])
		}
	}
	if got := s.Jobs(); len(got) != 3 || got[0] != ids[0] || got[1] != ids[1] || got[2] != ids[2] {
		t.Errorf("Jobs() = %v, want %v in submission order", got, ids)
	}
	k.Run()
	for _, id := range ids {
		ji, ok := s.Poll(id)
		if !ok || ji.State != Done {
			t.Errorf("archived job %s: ok=%v state=%v, want visible and done", id, ok, ji.State)
		}
		if ji.Finished == 0 || ji.Result.Job == "" {
			t.Errorf("archived job %s lost its outcome: finished=%v result=%q", id, ji.Finished, ji.Result.Job)
		}
	}
	if s.Completed() != 3 || len(s.Jobs()) != 3 {
		t.Errorf("completed=%d jobs=%d, want 3/3", s.Completed(), len(s.Jobs()))
	}
}

// TestSharesAcrossArchive: delivered shares integrate finished (archived)
// work from the per-tenant aggregates and live work from the running list —
// the split must not change what Shares reports.
func TestSharesAcrossArchive(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 8, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("a", 1)
	s.AddTenant("b", 1)
	if _, err := s.Submit(JobSpec{Tenant: "a", Workers: 2, CoresPerWorker: 2, EstimateSeconds: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "b", Workers: 2, CoresPerWorker: 2, EstimateSeconds: 400}); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(200 * sim.Second)
	// a: finished, 4 cores x 100 s = 400 core-s (archived).
	// b: running, 4 cores x 200 s elapsed = 800 core-s.
	shares := s.Shares()
	if got, want := shares["a"], 400.0/1200.0; !closeTo(got, want) {
		t.Errorf("share[a] = %v, want %v (archived work undercounted?)", got, want)
	}
	if got, want := shares["b"], 800.0/1200.0; !closeTo(got, want) {
		t.Errorf("share[b] = %v, want %v (running work undercounted?)", got, want)
	}
	if got := s.DeliveredCoreSeconds("a"); !closeTo(got, 400) {
		t.Errorf("DeliveredCoreSeconds(a) = %v, want 400", got)
	}
}

func closeTo(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// TestWatermarkExactDemand: a completion that frees exactly the blocked
// job's demand must dispatch it at that instant — the fit prover may skip
// placement only while the job provably cannot fit.
func TestWatermarkExactDemand(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	short, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 300}); err != nil {
		t.Fatal(err)
	}
	// Blocked: needs the 8 cores the short job holds, freed exactly at t=100.
	blocked, err := s.Submit(JobSpec{Tenant: "t", Workers: 4, CoresPerWorker: 2, EstimateSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	si, _ := s.Poll(short)
	bi, _ := s.Poll(blocked)
	if bi.State != Done {
		t.Fatalf("blocked job state = %v, want done", bi.State)
	}
	if bi.Started != si.Finished {
		t.Errorf("blocked job started at %v, want the short job's completion %v (the prover stranded it)",
			bi.Started, si.Finished)
	}
}

// TestWatermarkAccumulatesFrees: a wide blocked job must dispatch once
// several small completions have cumulatively freed its demand, even though
// each individual completion frees less than it needs (the fit prover sums
// the slots of the whole free vector; it never compares against a single
// completion).
func TestWatermarkAccumulatesFrees(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	// Four 4-core jobs finishing at 100/200/300/400 s.
	var ids []string
	for i := 1; i <= 4; i++ {
		id, err := s.Submit(JobSpec{Tenant: "t", Workers: 2, CoresPerWorker: 2,
			EstimateSeconds: float64(100 * i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Wide job: 12 cores — needs the first three completions (4+4+4).
	wide, err := s.Submit(JobSpec{Tenant: "t", Workers: 6, CoresPerWorker: 2, EstimateSeconds: 50})
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	third, _ := s.Poll(ids[2])
	wi, _ := s.Poll(wide)
	if wi.State != Done {
		t.Fatalf("wide job state = %v, want done", wi.State)
	}
	if wi.Started != third.Finished {
		t.Errorf("wide job started at %v, want the third completion %v", wi.Started, third.Finished)
	}
}

// rebuildReleases is the original rebuild-and-sort pendingReleases scan
// over every running job, without the overdue remap: the reference the
// maintained release list is checked against.
func rebuildReleases(s *Scheduler) []coreRelease {
	var out []coreRelease
	for _, j := range s.running {
		if j.State != Running || j.Spec.External() {
			continue
		}
		eta := j.Started + j.estDuration
		cpw := j.coresPerWorker()
		for _, m := range j.Plan.Members {
			// cloudRankFor is idempotent here: every cloud a running job
			// occupies is already in the rank table via insertReleases.
			out = append(out, coreRelease{at: eta, cores: m.Workers * cpw,
				cloudRank: s.cloudRankFor(m.Cloud), jobKey: relJobKey(j.seq)})
		}
	}
	sort.Slice(out, func(i, k int) bool { return releaseLess(out[i], out[k]) })
	return out
}

// oracleReleases is the sorted release snapshot the reservation walk used
// to take every blocked cycle: the rebuild with the standard EASY overdue
// remap (entries at or before now release at now+1s), re-sorted.
func oracleReleases(s *Scheduler) []coreRelease {
	now := s.K.Now()
	out := rebuildReleases(s)
	for i := range out {
		if out[i].at <= now {
			out[i].at = now + sim.Second
		}
	}
	sort.Slice(out, func(i, k int) bool { return releaseLess(out[i], out[k]) })
	return out
}

// oracleReserve is reserve's definition over a materialized release list:
// credit each instant's entries by cloud name, then ask the policy, with
// no fit precheck.
func oracleReserve(s *Scheduler, j *Job, v *CloudView, rel []coreRelease) (reservation, bool) {
	var av CloudView
	av.shareIndex(v)
	for i := 0; i < len(rel); {
		at := rel[i].at
		for ; i < len(rel) && rel[i].at == at; i++ {
			if p := av.Pos(s.relClouds[rel[i].cloudRank]); p >= 0 {
				av.free[p] += rel[i].cores
			}
		}
		if plan := s.cfg.Placement.Choose(s, j, &av); !plan.Empty() {
			return reservation{job: j.ID, jref: j, plan: plan, at: at}, true
		}
	}
	return reservation{}, false
}

// oracleSumsAt is sumReleasesAt's definition over a materialized list.
func oracleSumsAt(s *Scheduler, v *CloudView, rel []coreRelease, at sim.Time) []int {
	sums := make([]int, len(v.Clouds))
	for _, r := range rel {
		if p := v.Pos(s.relClouds[r.cloudRank]); r.at <= at && p >= 0 {
			sums[p] += r.cores
		}
	}
	return sums
}

func sameReleases(a, b []coreRelease) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkReserveOracle asserts that reserve's (plan, at) for job j against v,
// and sumReleasesAt's per-cloud sums at every oracle instant, at each extra
// probe instant and at the reservation instant, equal the values computed
// over the sorted oracle snapshot.
func checkReserveOracle(t *testing.T, s *Scheduler, j *Job, v *CloudView, probes ...sim.Time) {
	t.Helper()
	rel := oracleReleases(s)
	want, wantOK := oracleReserve(s, j, v, rel)
	got, ok := s.reserve(j, v)
	if ok != wantOK || got.at != want.at || !reflect.DeepEqual(got.plan, want.plan) {
		t.Fatalf("now=%v job %s (%d×%d): reserve = (%v, %v, %v), oracle (%v, %v, %v)\nreleases %v\nview free %v",
			s.K.Now(), j.ID, j.workers(), j.coresPerWorker(), got.plan, got.at, ok,
			want.plan, want.at, wantOK, rel, v.free)
	}
	ats := append([]sim.Time{got.at}, probes...)
	for _, r := range rel {
		ats = append(ats, r.at)
	}
	for _, at := range ats {
		s.sumReleasesAt(v, at)
		if w := oracleSumsAt(s, v, rel, at); !reflect.DeepEqual(s.relSumAtResv, w) {
			t.Fatalf("now=%v: sumReleasesAt(%v) = %v, oracle %v\nreleases %v", s.K.Now(), at, s.relSumAtResv, w, rel)
		}
	}
}

// TestReleaseListMatchesRebuild: under churn (staggered arrivals, spanning
// jobs, completions) the maintained sorted release list must equal the full
// rebuild at every checkpoint, and the in-place reservation walk over it
// must agree with the oracle snapshot for gangs of several widths.
func TestReleaseListMatchesRebuild(t *testing.T) {
	k := sim.NewKernel(7)
	b := NewSimBackend(k)
	for c := 0; c < 3; c++ {
		b.AddCloud(fmt.Sprintf("c%d", c), 16, 1.0+0.5*float64(c), 0.10)
	}
	s := New(b, Config{})
	s.AddTenant("a", 2)
	s.AddTenant("b", 1)
	for i := 0; i < 30; i++ {
		i := i
		k.At(sim.Time(i)*13*sim.Second, func() {
			spec := JobSpec{Tenant: []string{"a", "b"}[i%2], Workers: 2 + i%4,
				CoresPerWorker: 2, EstimateSeconds: float64(40 + 17*(i%5))}
			if i%6 == 0 {
				spec.Workers = 12 // 24 cores: wider than any 16-core cloud, spans
			}
			if _, err := s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		})
	}
	checks := 0
	for at := sim.Time(20) * sim.Second; at < 600*sim.Second; at += 37 * sim.Second {
		k.At(at, func() {
			if got, want := s.releases, rebuildReleases(s); !sameReleases(got, want) {
				t.Errorf("at %v: maintained list %v != rebuild %v", s.K.Now(), got, want)
			}
			clouds := b.Clouds()
			free := make(map[string]int, len(clouds))
			for _, c := range clouds {
				free[c.Name] = c.FreeCores
			}
			v := viewOf(clouds, free)
			for _, w := range []int{2, 8, 12, 20} {
				probe := &Job{ID: "J999", seq: 999, Spec: JobSpec{Tenant: "a", Workers: w,
					CoresPerWorker: 2, EstimateSeconds: 60}}
				checkReserveOracle(t, s, probe, &v, s.K.Now()+sim.Second)
			}
			checks++
		})
	}
	k.Run()
	if checks == 0 || s.Completed() != 30 {
		t.Fatalf("checks=%d completed=%d, want >0 and 30", checks, s.Completed())
	}
}

// releaseFixture is a scheduler at a fixed clock with running jobs planted
// directly (no backend leases), for release-walk tests that need exact
// control over each entry's estimated completion.
type releaseFixture struct {
	s *Scheduler
	b *SimBackend
}

func newReleaseFixture(now sim.Time, clouds ...string) releaseFixture {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	for _, c := range clouds {
		b.AddCloud(c, 64, 1, 0.10)
	}
	s := New(b, Config{})
	s.AddTenant("t", 1)
	k.At(now, func() {})
	k.Run()
	return releaseFixture{s: s, b: b}
}

// run plants a running job J<seq> whose release is estimated at eta.
func (f releaseFixture) run(seq int, eta sim.Time, members ...Member) {
	j := &Job{ID: "J" + strconv.Itoa(seq), seq: seq, Spec: JobSpec{Tenant: "t", Workers: 1}, State: Running,
		estDuration: eta, dispatched: true, Plan: Plan{Members: members}}
	f.s.active[j.ID] = j
	f.s.addRunning(j)
	f.s.insertReleases(j)
}

// TestReserveOverdueFold: entries whose estimate has blown count from the
// now+1s instant — after a genuine entry in (now, now+1s) and together with
// genuine now+1s entries — exactly as the old remapped snapshot ordered
// them.
func TestReserveOverdueFold(t *testing.T) {
	now := 100 * sim.Second
	f := newReleaseFixture(now, "c0", "c1")
	// Overdue: J10 (eta 50s, spanning) and J7 (eta 80s) count at 101s,
	// with J3's genuine 101s entry and after J2's genuine 100.5s one.
	f.run(10, 50*sim.Second, Member{Cloud: "c1", Workers: 2}, Member{Cloud: "c0", Workers: 1})
	f.run(7, 80*sim.Second, Member{Cloud: "c0", Workers: 3})
	f.run(2, now+500*sim.Millisecond, Member{Cloud: "c0", Workers: 4})
	f.run(3, now+sim.Second, Member{Cloud: "c1", Workers: 5})
	f.run(9, 200*sim.Second, Member{Cloud: "c0", Workers: 6})
	v := viewOf(f.b.Clouds(), nil) // nothing free now
	// Six cores on one cloud: c0 has 4 at 100.5s, 8 at 101s.
	j := &Job{ID: "J20", seq: 20, Spec: JobSpec{Tenant: "t", Workers: 6, CoresPerWorker: 1, EstimateSeconds: 10}}
	r, ok := f.s.reserve(j, &v)
	if !ok || r.at != now+sim.Second || r.plan.Workers() != 6 {
		t.Fatalf("reserve = (%v, %v, %v), want 6 workers at %v", r.plan, r.at, ok, now+sim.Second)
	}
	for _, c := range []struct {
		at     sim.Time
		c0, c1 int
	}{
		{now, 0, 0},
		{now + 500*sim.Millisecond, 4, 0},
		{now + sim.Second, 8, 7},
		{200 * sim.Second, 14, 7},
	} {
		f.s.sumReleasesAt(&v, c.at)
		if got := f.s.relSumAtResv; got[v.Pos("c0")] != c.c0 || got[v.Pos("c1")] != c.c1 {
			t.Errorf("sumReleasesAt(%v) = %v, want c0=%d c1=%d", c.at, got, c.c0, c.c1)
		}
	}
	checkReserveOracle(t, f.s, j, &v, now+500*sim.Millisecond)
}

// TestReserveMatchesOracleRandom: on seeded random release sets mixing
// overdue entries, entries in (now, now+1s) and entries exactly at now+1s,
// reserve and sumReleasesAt over the live list equal the oracle snapshot's
// answers — including after a mid-cycle dispatch onto a cloud the rank
// table has not seen, which shifts every existing entry's rank.
func TestReserveMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	now := 100 * sim.Second
	names := []string{"c0", "c1", "c2", "c3"}
	eta := func() sim.Time {
		switch rng.Intn(5) {
		case 0:
			return sim.Time(1+rng.Intn(100)) * sim.Second // overdue, now included
		case 1:
			return now + sim.Time(1+rng.Intn(999))*sim.Millisecond
		case 2:
			return now + sim.Second
		default:
			return now + sim.Time(2+rng.Intn(30))*sim.Second
		}
	}
	members := func(clouds []string) []Member {
		var ms []Member
		for _, i := range rng.Perm(len(clouds))[:1+rng.Intn(len(clouds))] {
			ms = append(ms, Member{Cloud: clouds[i], Workers: 1 + rng.Intn(8)})
		}
		return ms
	}
	for trial := 0; trial < 300; trial++ {
		// "a0" sorts before every cN, so its first release shifts them all.
		f := newReleaseFixture(now, append([]string{"a0"}, names...)...)
		seqs := rng.Perm(40)
		for n := 1 + rng.Intn(20); n > 0; n-- {
			f.run(1+seqs[n], eta(), members(names)...)
		}
		free := make(map[string]int)
		for _, c := range append([]string{"a0"}, names...) {
			free[c] = rng.Intn(8) - 1
		}
		v := viewOf(f.b.Clouds(), free)
		j := &Job{ID: "J100", seq: 100, Spec: JobSpec{Tenant: "t", Workers: 1 + rng.Intn(60),
			CoresPerWorker: 1 + rng.Intn(2), EstimateSeconds: 30}}
		probes := []sim.Time{now, now + 500*sim.Millisecond, now + sim.Second}
		checkReserveOracle(t, f.s, j, &v, probes...)
		// Mid-cycle: a dispatch onto a0 inserts rank 0. The next walk must
		// not resolve ranks through a table built before the insert.
		f.run(50, eta(), members([]string{"a0", "c1"})...)
		checkReserveOracle(t, f.s, j, &v, probes...)
	}
}

// TestReleaseSnapshotRefreshAfterFailedReserve: when the head job's
// reservation attempt fails (policy can never place it) and a later job
// dispatches in the same cycle, the NEXT blocked job's reserve() must see
// the dispatched job's release — a stale snapshot would hand it a
// wrong-cloud reservation and let a long backfill job slip in front of it.
func TestReleaseSnapshotRefreshAfterFailedReserve(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 10, 1, 0.10)
	b.AddCloud("c1", 12, 1, 0.10)
	s := New(b, Config{Placement: RandomPlacement{}})
	s.AddTenant("t", 1)
	submit := func(workers int, est float64) string {
		id, err := s.Submit(JobSpec{Tenant: "t", Workers: workers, CoresPerWorker: 1, EstimateSeconds: est})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	submit(12, 1000) // R: fills c1 (only cloud with 12 free) until t=1000
	w := submit(16, 50)
	// W: wider than any single cloud — Random never places it, its
	// reservation attempt fails every cycle, and it stays queued.
	a := submit(8, 100)  // A: fits only c0 (leaves 2 free), releases at t=100
	bl := submit(10, 50) // B: blocked; must reserve c0 at A's release
	c := submit(2, 5000) // C: fits c0's spare 2 — would delay B's reserved start
	k.Run()
	if wi, _ := s.Poll(w); wi.State != Queued {
		t.Fatalf("wide job state = %v, want queued forever under the single-cloud policy", wi.State)
	}
	ai, _ := s.Poll(a)
	bi, _ := s.Poll(bl)
	ci, _ := s.Poll(c)
	if bi.Started != ai.Finished {
		t.Errorf("blocked job started at %v, want %v (A's release; stale reservation let something delay it)",
			bi.Started, ai.Finished)
	}
	if ci.Started < bi.Started {
		t.Errorf("long backfill job started at %v, before the reserved job's start %v — the cycle's "+
			"release snapshot missed A's dispatch and reserved the wrong cloud", ci.Started, bi.Started)
	}
}

// TestFitsFederationCacheInvalidation: the cached federation-wide gang
// slots must follow cloud resizes — a job that no longer fits is rejected,
// and added capacity admits wider jobs.
func TestFitsFederationCacheInvalidation(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	c := b.AddCloud("c0", 16, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 16, CoresPerWorker: 1, EstimateSeconds: 10}); err != nil {
		t.Fatalf("16-core job rejected on a 16-core federation: %v", err)
	}
	c.SetTotal(8)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 16, CoresPerWorker: 1, EstimateSeconds: 10}); err == nil {
		t.Fatal("16-core job admitted after the federation shrank to 8 cores (stale slot cache)")
	}
	c.SetTotal(64)
	if _, err := s.Submit(JobSpec{Tenant: "t", Workers: 40, CoresPerWorker: 1, EstimateSeconds: 10}); err != nil {
		t.Fatalf("40-core job rejected after growth to 64 cores (stale slot cache): %v", err)
	}
}
