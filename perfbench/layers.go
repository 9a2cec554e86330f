package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/capacity"
	"repro/internal/sched"
	"repro/internal/workload"
)

// journalOps are the capacity journal's record kinds, reported as per-op
// counts.
var journalOps = []string{
	capacity.OpCloud, capacity.OpLease, capacity.OpCommit, capacity.OpRelease,
	capacity.OpShrink, capacity.OpUncommit, capacity.OpMove, capacity.OpFail, capacity.OpRestore,
}

// runtimeTotals is the Go runtime's cost over the untraced reference
// replays, each from its start to the kernel's drain.
type runtimeTotals struct {
	cpu         time.Duration // process CPU, excluding the drain-time probe
	gcCycles    uint32
	gcCPU, busy float64   // runtime/metrics CPU-class seconds
	liveHeapMiB []float64 // per replay: heap still held at drain, over the pre-replay baseline
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPUClasses(s []metrics.Sample) (gc, busy float64) {
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// referenceReplay runs workload.Replay on tr and adds the runtime's cost
// over it to rt. The drain-time probe (a forced GC to read the live heap)
// runs in OnFinish and is excluded from the CPU figure.
func referenceReplay(tr *workload.Trace, rt *runtimeTotals) (workload.Result, error) {
	samples := make([]metrics.Sample, len(cpuClasses))
	for i, name := range cpuClasses {
		samples[i].Name = name
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0, gc0 := ms.HeapAlloc, ms.NumGC
	gcCPU0, busy0 := readCPUClasses(samples)
	var probe time.Duration
	cfg := replayConfig()
	cfg.OnFinish = func(*sched.Scheduler, *sched.SimBackend) {
		p0 := cpuTime()
		gcCPU1, busy1 := readCPUClasses(samples)
		rt.gcCPU += gcCPU1 - gcCPU0
		rt.busy += busy1 - busy0
		runtime.ReadMemStats(&ms)
		rt.gcCycles += ms.NumGC - gc0
		runtime.GC()
		runtime.ReadMemStats(&ms)
		rt.liveHeapMiB = append(rt.liveHeapMiB, (float64(ms.HeapAlloc)-float64(heap0))/(1<<20))
		probe = cpuTime() - p0
	}
	c0 := cpuTime()
	r, err := workload.Replay(tr, cfg)
	rt.cpu += cpuTime() - c0 - probe
	return r, err
}

// measureLayers is the traced run: per trace, an untraced reference replay
// through workload.Replay, then the traced driver on the same trace, whose
// Result must equal the reference field for field.
func measureLayers(w spec, seed int64) outcome {
	var out outcome
	out.attempted = w.traces * w.jobsPerTrace
	st := newTraceStats()
	refs := make([]workload.Result, w.traces)
	var rt runtimeTotals
	costs, err := forEachTrace(w, seed, func(i int, tr *workload.Trace) error {
		ref, err := referenceReplay(tr, &rt)
		if err != nil {
			return err
		}
		refs[i] = ref
		runtime.GC()
		got, err := tracedReplay(tr, st)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		if got != ref {
			return fmt.Errorf("traced driver diverges from workload.Replay:\n  traced    %+v\n  reference %+v", got, ref)
		}
		return nil
	})
	if err != nil {
		out.checkErr = err
		return out
	}
	if out.failed, err = checkResults(w, refs); err != nil {
		out.checkErr = err
		return out
	}
	if st.queueMax < int64(w.minQueueMax) {
		out.checkErr = fmt.Errorf("%s decayed: deepest queue %d jobs, floor %d", w.name, st.queueMax, w.minQueueMax)
		return out
	}
	out.metrics = layerMetrics(costs, float64(out.attempted), st, rt)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// layerMetrics reduces the traced run to the per-layer report. Set-up
// figures are per-trace medians, like setup_s; replay figures are totals
// over the batch unless their name says per job or per cycle.
func layerMetrics(costs []setupCost, jobs float64, st *traceStats, rt runtimeTotals) []metric {
	k := len(costs)
	var gen, save, load, size, fgen, finj []float64
	faultEvents := 0
	for _, p := range costs {
		gen = append(gen, p.generate.Seconds())
		save = append(save, p.save.Seconds())
		load = append(load, p.load.Seconds())
		size = append(size, float64(p.bytes))
		fgen = append(fgen, p.faultGen.Seconds())
		finj = append(finj, p.inject.Seconds())
		faultEvents += p.faultEvents
	}
	sort.Float64s(st.cycleSelfUS)
	sort.Float64s(st.waits)
	var waitSum float64
	for _, w := range st.waits {
		waitSum += w
	}
	var steps int64
	for _, n := range st.steps {
		steps += n
	}
	cycles := float64(st.cycles)
	nc, nw := len(st.cycleSelfUS), len(st.waits)
	backendSelf := st.self[bucketLaunch] + st.self[bucketClouds] + st.self[bucketBackend]

	m := []metric{
		{"workload.generate_s", median(gen), "s", k},
		{"workload.trace_bytes", median(size), "bytes", k},
		{"workload.trace_save_s", median(save), "s", k},
		{"workload.trace_load_s", median(load), "s", k},
		{"workload.inject_s", secs(st.self[bucketInject]), "s", int(st.calls[bucketInject])},
		{"workload.reduce_s", secs(st.self[bucketReduce]), "s", k},

		{"faults.generate_s", median(fgen), "s", k},
		{"faults.inject_s", median(finj), "s", k},
		{"faults.events", float64(faultEvents), "count", k},

		{"sim.steps", float64(steps), "count", k},
		{"sim.steps_per_job", ratio(float64(steps), jobs), "count", k},
		{"sim.self_s", secs(st.self[bucketSim]), "s", int(st.calls[bucketSim])},
	}
	for kind, name := range stepKindNames {
		m = append(m, metric{"sim.steps_" + name, float64(st.steps[kind]), "count", k})
	}
	m = append(m,
		metric{"sched.cycles", cycles, "count", k},
		metric{"sched.cycle_self_s", secs(st.self[bucketCycle]), "s", nc},
		metric{"sched.cycle_self_us_per_job", ratio(float64(st.self[bucketCycle])/1e3, jobs), "us", nc},
		metric{"sched.cycle_us_p50", percentile(st.cycleSelfUS, 0.50), "us", nc},
		metric{"sched.cycle_us_p999", percentile(st.cycleSelfUS, 0.999), "us", nc},
		metric{"sched.queue_len_mean", ratio(float64(st.queueSum), cycles), "count", nc},
		metric{"sched.queue_len_max", float64(st.queueMax), "count", nc},
		metric{"sched.dispatches_per_cycle", ratio(float64(st.dispatches), cycles), "count", nc},
		metric{"sched.submit_s", secs(st.self[bucketSubmit]), "s", int(st.calls[bucketSubmit])},
		metric{"sched.notify_s", secs(st.self[bucketNotify]), "s", int(st.calls[bucketNotify])},
		metric{"sched.complete_s", secs(st.self[bucketComplete]), "s", int(st.calls[bucketComplete])},
		metric{"sched.poll_s", secs(st.self[bucketPoll]), "s", int(st.calls[bucketPoll])},
	)
	for _, ph := range schedPhases {
		m = append(m, metric{"sched.phase_" + ph + "_s", st.phase[ph], "s", nc})
	}
	for _, c := range schedCounters {
		m = append(m, metric{c.name, st.counters[c.name], "count", k})
	}
	m = append(m,
		metric{"simbackend.launch_calls", float64(st.calls[bucketLaunch]), "count", k},
		metric{"simbackend.launch_s", secs(st.self[bucketLaunch]), "s", int(st.calls[bucketLaunch])},
		metric{"simbackend.launch_errors", float64(st.launchErrors), "count", k},
		metric{"simbackend.clouds_s", secs(st.self[bucketClouds]), "s", int(st.calls[bucketClouds])},
		metric{"simbackend.bandwidth_calls", float64(st.bandwidthCalls), "count", k},
		metric{"simbackend.fault_calls", float64(st.faultCalls), "count", k},
		metric{"simbackend.self_s", secs(backendSelf), "s", k},

		metric{"capacity.transitions_per_job", ratio(float64(st.replayRecs), jobs), "count", k},
	)
	for _, op := range journalOps {
		m = append(m, metric{"capacity.op_" + op, float64(st.journalOps[op]), "count", k})
	}
	m = append(m,
		metric{"capacity.generation", float64(st.generation), "count", k},
		metric{"capacity.replay_ns_per_op", ratio(float64(st.replayNS), float64(st.replayRecs)), "ns", k},

		metric{"runtime.gc_cycles", float64(rt.gcCycles), "count", k},
		metric{"runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.busy), "share", k},
		metric{"runtime.live_heap_mb_at_drain", median(rt.liveHeapMiB), "MiB", k},

		metric{"trace.overhead_frac", ratio(float64(st.cpu-rt.cpu), float64(rt.cpu)), "share", k},
		metric{"trace.unattributed_frac", ratio(float64(st.root-sumSelf(st)), float64(st.root)), "share", k},

		metric{"outcome.wait_mean_s", ratio(waitSum, float64(nw)), "s", nw},
		metric{"outcome.wait_p99_s", percentile(st.waits, 0.99), "s", nw},
		metric{"outcome.wait_p999_s", percentile(st.waits, 0.999), "s", nw},
		metric{"outcome.preemptions_per_job", ratio(float64(st.preemptions), jobs), "count", k},
	)
	return m
}

func sumSelf(st *traceStats) int64 {
	var t int64
	for _, v := range st.self {
		t += v
	}
	return t
}
