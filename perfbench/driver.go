package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"repro/internal/capacity"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// timedBackend is the traced driver's sched.Backend: it forwards every call
// to a SimBackend and books the call's time to a span. Kernel and Ledger
// only return pointers — the scheduler reads Kernel once, at New, and calls
// Ledger for every queued job it examines in a cycle — so they are
// forwarded untimed; the ledger work the scheduler does through them is its
// own. AppendClouds must be forwarded too, or the scheduler
// would fall back to the allocating Clouds snapshot and the traced run
// would no longer be the program the untraced run measured.
type timedBackend struct {
	b  *sched.SimBackend
	sp *spans

	// onDone is the scheduler's completion callback; Launch hands the
	// backend doneFn (bound once) so each completion is timed without a
	// closure per launch. The scheduler passes the same callback to every
	// Launch.
	onDone func(*sched.Job, sched.Outcome)
	doneFn func(*sched.Job, sched.Outcome)
	// completed marks that a completion reached the scheduler during the
	// current kernel step.
	completed bool

	launchErrors   int
	bandwidthCalls int
	faultCalls     int // FailCloud, RestoreCloud, FailNextLaunches, partial-outage resizes
}

func newTimedBackend(b *sched.SimBackend, sp *spans) *timedBackend {
	d := &timedBackend{b: b, sp: sp}
	d.doneFn = d.done
	return d
}

func (d *timedBackend) Kernel() *sim.Kernel { return d.b.Kernel() }

func (d *timedBackend) Ledger() *capacity.Ledger { return d.b.Ledger() }

func (d *timedBackend) Clouds() []sched.CloudInfo {
	d.sp.begin(bucketClouds)
	c := d.b.Clouds()
	d.sp.end()
	return c
}

func (d *timedBackend) AppendClouds(dst []sched.CloudInfo) []sched.CloudInfo {
	d.sp.begin(bucketClouds)
	dst = d.b.AppendClouds(dst)
	d.sp.end()
	return dst
}

func (d *timedBackend) Bandwidth(a, c string) float64 {
	d.bandwidthCalls++
	d.sp.begin(bucketBackend)
	bw := d.b.Bandwidth(a, c)
	d.sp.end()
	return bw
}

func (d *timedBackend) SetBandwidth(a, c string, bw float64) {
	d.bandwidthCalls++
	d.sp.begin(bucketBackend)
	d.b.SetBandwidth(a, c, bw)
	d.sp.end()
}

func (d *timedBackend) Launch(j *sched.Job, plan sched.Plan, onDone func(*sched.Job, sched.Outcome)) (sched.Handle, error) {
	d.onDone = onDone
	d.sp.begin(bucketLaunch)
	h, err := d.b.Launch(j, plan, d.doneFn)
	d.sp.end()
	if err != nil {
		d.launchErrors++
	}
	return h, err
}

func (d *timedBackend) done(j *sched.Job, out sched.Outcome) {
	d.completed = true
	d.sp.begin(bucketComplete)
	d.onDone(j, out)
	d.sp.end()
}

func (d *timedBackend) FailCloud(name string) (int, error) {
	d.faultCalls++
	d.sp.begin(bucketBackend)
	n, err := d.b.FailCloud(name)
	d.sp.end()
	return n, err
}

func (d *timedBackend) RestoreCloud(name string) error {
	d.faultCalls++
	d.sp.begin(bucketBackend)
	err := d.b.RestoreCloud(name)
	d.sp.end()
	return err
}

func (d *timedBackend) FailNextLaunches(cloud string, n int) {
	d.faultCalls++
	d.sp.begin(bucketBackend)
	d.b.FailNextLaunches(cloud, n)
	d.sp.end()
}

// cloudTotal returns the cloud's capacity, or false for an unknown cloud.
func (d *timedBackend) cloudTotal(name string) (int, bool) {
	d.sp.begin(bucketBackend)
	defer d.sp.end()
	c := d.b.Cloud(name)
	if c == nil {
		return 0, false
	}
	return c.Total(), true
}

// setCloudTotal resizes a known cloud (a partial outage or its restore).
func (d *timedBackend) setCloudTotal(name string, cores int) {
	d.faultCalls++
	d.sp.begin(bucketBackend)
	d.b.Cloud(name).SetTotal(cores)
	d.sp.end()
}

// traceStats accumulates the traced driver's per-layer measurements over a
// batch.
type traceStats struct {
	self  [nBuckets]int64 // ns
	calls [nBuckets]int64
	root  int64         // ns inside tracedReplay's timed part
	cpu   time.Duration // process CPU over the same part
	steps [nStepKinds]int64

	cycleSelfUS          []float64 // one per cycle
	queueSum, queueMax   int64     // queued jobs at each cycle's start
	cycles, dispatches   int64
	launchErrors         int64
	bandwidthCalls       int64
	faultCalls           int64
	phase                map[string]float64 // summed phase-histogram seconds
	counters             map[string]float64 // summed scheduler counters
	waits                []float64          // every completed job's wait, seconds
	preemptions          int64
	journalOps           map[string]int64
	generation           uint64
	replayNS, replayRecs int64
}

func newTraceStats() *traceStats {
	return &traceStats{
		phase:      make(map[string]float64),
		counters:   make(map[string]float64),
		journalOps: make(map[string]int64),
	}
}

// schedCounters are the scheduler counters the per-layer report reads from
// Scheduler.Obs() at drain, by report name.
var schedCounters = []struct{ name, series string }{
	{"sched.plan_memo_hits", "sky_sched_plan_memo_hits_total"},
	{"sched.resv_cache_hits", "sky_sched_resv_cache_hits_total"},
	{"sched.view_seals", "sky_sched_view_seals_total"},
	{"sched.backfills", "sky_sched_backfills_total"},
	{"sched.outage_requeues", "sky_faults_outage_requeues_total"},
	{"sched.quarantines", "sky_faults_quarantines_total"},
	{"sched.launch_retries", "sky_faults_launch_retries_total"},
}

var schedPhases = []string{"placement", "backfill", "preemption"}

// readObs adds the scheduler's registry figures at drain to st.
func (st *traceStats) readObs(reg *obs.Registry) {
	for _, c := range schedCounters {
		st.counters[c.name] += reg.Value(c.series)
	}
	snap := reg.Snapshot()
	for _, ph := range schedPhases {
		st.phase[ph] += snap[`sky_sched_phase_seconds_sum{phase="`+ph+`",workers="1"}`]
	}
}

// tracedReplay replays tr the way workload.Replay does — same federation,
// same scheduler config, same event handling, same reduction — but steps
// the kernel itself and times every call it makes into the scheduler and
// the backend. It attaches a capacity journal before the first cloud is
// added and, after the drain, checks that replaying the journal rebuilds
// the live ledger and that every live cloud is idle.
func tracedReplay(tr *workload.Trace, st *traceStats) (workload.Result, error) {
	cfg := replayConfig()
	cpu0, base := cpuTime(), time.Now()
	sp := newSpans(func() int64 { return int64(time.Since(base)) })
	rootStart := sp.clock()

	k := sim.NewKernel(tr.Header.Seed)
	b := sched.NewSimBackend(k)
	jrn := capacity.NewJournal()
	b.Ledger().Journal(jrn)
	for _, c := range workload.DefaultClouds() {
		b.AddCloud(c.Name, c.Cores, c.Speed, c.Price)
	}
	if cfg.OverrunSigma > 0 {
		b.UseLogNormalOverrun(cfg.OverrunMu, cfg.OverrunSigma)
	}
	d := newTimedBackend(b, sp)
	s := sched.New(d, cfg.Sched)
	for _, t := range tr.Header.Tenants {
		s.AddTenant(t.Name, t.Weight)
	}

	submit := func(spec sched.JobSpec) (string, error) {
		sp.begin(bucketSubmit)
		id, err := s.Submit(spec)
		sp.end()
		return id, err
	}
	notify := func(ev sched.Event) {
		sp.begin(bucketNotify)
		s.Notify(ev)
		sp.end()
	}
	poll := func(id string) (sched.JobInfo, bool) {
		sp.begin(bucketPoll)
		ji, ok := s.Poll(id)
		sp.end()
		return ji, ok
	}

	var res workload.Result
	ids := make([]string, 0, len(tr.Events))
	var spotLive []string
	var submitErr error
	var partialLost map[string]int
	var baseBW map[[2]string]float64
	process := func(ev *workload.Event) {
		switch ev.Kind {
		case workload.KindSubmit:
			id, err := submit(sched.JobSpec{
				Tenant:          ev.Tenant,
				Name:            ev.Name,
				Workers:         ev.Workers,
				CoresPerWorker:  ev.Cores,
				EstimateSeconds: ev.EstimateSeconds,
				Spot:            ev.Spot,
				Bid:             ev.Bid,
			})
			if err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("submit %s: %w", ev.Name, err)
				}
				return
			}
			res.Jobs++
			ids = append(ids, id)
			if ev.Spot {
				spotLive = append(spotLive, id)
			}
		case workload.KindRevoke:
			struck := 0
			live := spotLive[:0]
			for _, id := range spotLive {
				ji, ok := poll(id)
				if !ok || ji.State == sched.Done || ji.State == sched.Failed {
					continue
				}
				live = append(live, id)
				if ji.State != sched.Running {
					continue
				}
				if ev.Strikes > 0 && struck >= ev.Strikes {
					continue
				}
				onCloud := false
				for _, m := range ji.Plan.Members {
					if m.Cloud == ev.Cloud {
						onCloud = true
						break
					}
				}
				if onCloud {
					notify(sched.Event{Kind: sched.EventSpotRevoked, Job: id, Cloud: ev.Cloud})
					struck++
				}
			}
			spotLive = live
		case workload.KindOutage:
			if ev.Partial > 0 {
				total, ok := d.cloudTotal(ev.Cloud)
				if !ok {
					if submitErr == nil {
						submitErr = fmt.Errorf("outage on unknown cloud %q", ev.Cloud)
					}
					return
				}
				if partialLost == nil {
					partialLost = make(map[string]int)
				}
				lost := ev.Partial
				if lost >= total {
					lost = total - 1
				}
				if lost <= 0 || partialLost[ev.Cloud] > 0 {
					return
				}
				partialLost[ev.Cloud] = lost
				d.setCloudTotal(ev.Cloud, total-lost)
				return
			}
			if _, err := d.FailCloud(ev.Cloud); err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("outage: %w", err)
				}
				return
			}
			notify(sched.Event{Kind: sched.EventCloudFailed, Cloud: ev.Cloud})
		case workload.KindRestore:
			if lost := partialLost[ev.Cloud]; lost > 0 {
				delete(partialLost, ev.Cloud)
				total, _ := d.cloudTotal(ev.Cloud)
				d.setCloudTotal(ev.Cloud, total+lost)
				notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
				return
			}
			if err := d.RestoreCloud(ev.Cloud); err != nil {
				if submitErr == nil {
					submitErr = fmt.Errorf("restore: %w", err)
				}
				return
			}
			notify(sched.Event{Kind: sched.EventCloudRestored, Cloud: ev.Cloud})
		case workload.KindDegrade:
			if baseBW == nil {
				baseBW = make(map[[2]string]float64)
			}
			key := [2]string{ev.Cloud, ev.Peer}
			if ev.Factor >= 1 {
				if bw, ok := baseBW[key]; ok {
					d.SetBandwidth(ev.Cloud, ev.Peer, bw)
					delete(baseBW, key)
				}
				return
			}
			bw, ok := baseBW[key]
			if !ok {
				bw = d.Bandwidth(ev.Cloud, ev.Peer)
				baseBW[key] = bw
			}
			d.SetBandwidth(ev.Cloud, ev.Peer, bw*ev.Factor)
		case workload.KindDeployFault:
			strikes := ev.Strikes
			if strikes <= 0 {
				strikes = 1
			}
			d.FailNextLaunches(ev.Cloud, strikes)
		}
	}
	injected := false
	var inject func(i int)
	inject = func(i int) {
		injected = true
		sp.begin(bucketInject)
		at := tr.Events[i].At
		for i < len(tr.Events) && tr.Events[i].At == at {
			process(&tr.Events[i])
			i++
		}
		if i < len(tr.Events) {
			next := i
			k.At(sim.Time(tr.Events[next].At), func() { inject(next) })
		}
		sp.end()
	}
	if len(tr.Events) > 0 {
		k.At(sim.Time(tr.Events[0].At), func() { inject(0) })
	}

	for {
		injected, d.completed = false, false
		queued := int64(s.QueueLen())
		cycles := s.Cycles()
		sp.begin(bucketStep)
		if !k.Step() {
			sp.endAs(bucketSim)
			break
		}
		kind := classifyStep(injected, d.completed, s.Cycles()-cycles)
		st.steps[kind]++
		if kind != stepCycle {
			sp.endAs(bucketSim)
			continue
		}
		st.cycleSelfUS = append(st.cycleSelfUS, float64(sp.endAs(bucketCycle))/1e3)
		st.queueSum += queued
		if queued > st.queueMax {
			st.queueMax = queued
		}
	}
	if submitErr != nil {
		return workload.Result{}, submitErr
	}

	sp.begin(bucketReduce)
	waits := make([]float64, 0, len(ids))
	for _, id := range ids {
		ji, ok := poll(id)
		if !ok {
			continue
		}
		switch ji.State {
		case sched.Done:
			res.Completed++
			waits = append(waits, (ji.Started - ji.Submitted).Seconds())
			if fin := ji.Finished.Seconds(); fin > res.MakespanSeconds {
				res.MakespanSeconds = fin
			}
		case sched.Failed:
			res.Failed++
		default:
			res.Unfinished++
		}
	}
	st.waits = append(st.waits, waits...)
	if len(waits) > 0 {
		sort.Float64s(waits)
		var sum float64
		for _, w := range waits {
			sum += w
		}
		res.MeanWaitSeconds = sum / float64(len(waits))
		res.P50WaitSeconds = percentile(waits, 0.50)
		res.P99WaitSeconds = percentile(waits, 0.99)
		res.MaxWaitSeconds = waits[len(waits)-1]
	}
	res.Backfills = s.Backfills()
	res.Preemptions = s.Preemptions()
	res.SpotRevocations = s.SpotRevocations()
	res.Consolidations = s.Consolidations()
	res.Outages = s.Outages()
	res.OutageRequeues = s.OutageRequeues()
	res.Quarantines = s.Quarantines()
	res.LaunchRetries = s.LaunchRetries()
	shares, entitled := s.Shares(), s.EntitledShares()
	for _, t := range tr.Header.Tenants {
		if err := shares[t.Name] - entitled[t.Name]; err > res.ShareErrorMax {
			res.ShareErrorMax = err
		} else if -err > res.ShareErrorMax {
			res.ShareErrorMax = -err
		}
	}
	sp.end()
	st.root += sp.clock() - rootStart
	st.cpu += cpuTime() - cpu0

	for i := range sp.self {
		st.self[i] += sp.self[i]
		st.calls[i] += sp.calls[i]
	}
	st.cycles += int64(s.Cycles())
	st.dispatches += int64(s.Dispatched())
	st.preemptions += int64(res.Preemptions)
	st.launchErrors += int64(d.launchErrors)
	st.bandwidthCalls += int64(d.bandwidthCalls)
	st.faultCalls += int64(d.faultCalls)
	st.readObs(s.Obs())
	if got := st.steps[stepCycle]; got != st.cycles {
		return res, fmt.Errorf("classified %d cycle steps, the scheduler counted %d cycles", got, st.cycles)
	}
	return res, checkLedger(b, jrn, st)
}

// checkLedger verifies the drained ledger against its journal: replaying
// the records must rebuild a byte-identical snapshot, and every cloud that
// is up must be idle (Free == Total).
func checkLedger(b *sched.SimBackend, jrn *capacity.Journal, st *traceStats) error {
	live := b.Ledger()
	recs := jrn.Recs()
	t0 := time.Now()
	rebuilt, err := capacity.Replay(recs)
	st.replayNS += int64(time.Since(t0))
	st.replayRecs += int64(len(recs))
	if err != nil {
		return fmt.Errorf("ledger journal replay: %w", err)
	}
	if !bytes.Equal(rebuilt.Snapshot(), live.Snapshot()) {
		return fmt.Errorf("ledger journal replay does not rebuild the live ledger")
	}
	for _, name := range live.Clouds() {
		if !live.Failed(name) && live.Free(name) != live.Total(name) {
			return fmt.Errorf("cloud %s drained with %d of %d cores free", name, live.Free(name), live.Total(name))
		}
	}
	for _, r := range recs {
		st.journalOps[r.Op]++
	}
	st.generation += live.Generation()
	return nil
}
