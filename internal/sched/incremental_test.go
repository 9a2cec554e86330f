package sched

import (
	"fmt"
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

// oracleReleases is the original rebuild-and-sort pendingReleases
// definition, kept as the oracle the maintained release list is checked
// against.
func oracleReleases(s *Scheduler) []coreRelease {
	now := s.K.Now()
	var out []coreRelease
	for _, j := range s.running {
		if j.State != Running || j.Spec.External() {
			continue
		}
		eta := j.Started + j.estDuration
		if eta <= now {
			eta = now + sim.Second
		}
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

// TestReleaseListMatchesRebuild: under churn (staggered arrivals, spanning
// jobs, completions) the maintained sorted release list snapshot must equal
// the full rebuild at every checkpoint.
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
			got := append([]coreRelease(nil), s.snapshotReleases()...)
			want := oracleReleases(s)
			if !sameReleases(got, want) {
				t.Errorf("at %v: snapshot %v != rebuild %v", s.K.Now(), got, want)
			}
			checks++
		})
	}
	k.Run()
	if checks == 0 || s.Completed() != 30 {
		t.Fatalf("checks=%d completed=%d, want >0 and 30", checks, s.Completed())
	}
}

// TestSnapshotReleasesOverdueMerge: entries whose estimate has blown remap
// to now+1s and interleave with genuine entries exactly as the old
// rebuild-and-sort produced — including the (job, cloud) tie-break inside
// the remap instant.
func TestSnapshotReleasesOverdueMerge(t *testing.T) {
	k := sim.NewKernel(1)
	b := NewSimBackend(k)
	b.AddCloud("c0", 64, 1, 0.10)
	b.AddCloud("c1", 64, 1, 0.10)
	s := New(b, Config{})
	s.AddTenant("t", 1)
	mk := func(id string, started, est sim.Time, members ...Member) *Job {
		seq, err := strconv.Atoi(id[1:])
		if err != nil {
			t.Fatalf("test job id %q must be J<seq>", id)
		}
		j := &Job{ID: id, seq: seq, Spec: JobSpec{Tenant: "t", Workers: 1}, State: Running,
			Started: started, estDuration: est, dispatched: true,
			Plan: Plan{Members: members}}
		s.active[id] = j
		s.addRunning(j)
		s.insertReleases(j)
		return j
	}
	// Advance the clock to t=100s so earlier ETAs are overdue.
	k.At(100*sim.Second, func() {})
	k.Run()
	// Overdue: J10 (eta 50s, spanning) and J7 (eta 80s) remap to 101s —
	// and must come back sorted J10 before J7 (string order), interleaved
	// with J3's genuine 101s entry and after J2's genuine 100.5s one.
	mk("J10", 0, 50*sim.Second, Member{Cloud: "c1", Workers: 2}, Member{Cloud: "c0", Workers: 1})
	mk("J7", 0, 80*sim.Second, Member{Cloud: "c0", Workers: 3})
	mk("J2", 0, 100*sim.Second+500*sim.Millisecond, Member{Cloud: "c0", Workers: 4})
	mk("J3", 0, 101*sim.Second, Member{Cloud: "c1", Workers: 5})
	mk("J9", 0, 200*sim.Second, Member{Cloud: "c0", Workers: 6})
	got := append([]coreRelease(nil), s.snapshotReleases()...)
	want := oracleReleases(s)
	if !sameReleases(got, want) {
		t.Fatalf("overdue merge:\n got %v\nwant %v", got, want)
	}
	// Sanity on the expected shape itself: J2 first, then the 101s group
	// ordered J10, J10, J3, J7 by (job, cloud)… i.e. string order.
	if got[0].jobKey != relJobKey(2) || got[len(got)-1].jobKey != relJobKey(9) {
		t.Fatalf("unexpected envelope: %v", got)
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
