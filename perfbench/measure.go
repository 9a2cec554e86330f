package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/workload"
)

// metric is one reported number with its unit and how many samples it was
// reduced from.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// outcome is what one run reports: its metrics, how many jobs it
// attempted and how many of those failed or never finished, and the first
// check that failed (nil when every check passed).
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	checkErr  error
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cost is what replaying one or more traces cost.
type cost struct {
	wall, cpu      time.Duration
	mallocs, bytes uint64
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
	c.mallocs += d.mallocs
	c.bytes += d.bytes
}

// timedReplay replays tr through workload.Replay, unchanged, after a GC
// that clears the set-up's garbage, and measures the replay alone.
func timedReplay(tr *workload.Trace) (workload.Result, cost, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0, b0 := ms.Mallocs, ms.TotalAlloc
	c0, t0 := cpuTime(), time.Now()
	r, err := workload.Replay(tr, replayConfig())
	c := cost{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs-m0, ms.TotalAlloc-b0
	return r, c, err
}

// checkResults applies the outcome-side validity guards to one replay of
// the batch and returns the failed-or-unfinished job count.
func checkResults(w spec, results []workload.Result) (int, error) {
	failed := 0
	var outages, requeues, retries int
	for i, r := range results {
		if got := r.Completed + r.Failed + r.Unfinished; got != w.jobsPerTrace || r.Jobs != w.jobsPerTrace {
			return 0, fmt.Errorf("trace %d of the batch: completed+failed+unfinished = %d and %d submitted, trace has %d jobs",
				i, got, r.Jobs, w.jobsPerTrace)
		}
		failed += r.Failed + r.Unfinished
		outages += r.Outages
		requeues += r.OutageRequeues
		retries += r.LaunchRetries
	}
	if w.faults != nil && (outages == 0 || requeues == 0 || retries == 0) {
		return failed, fmt.Errorf("storm decayed: %d outages, %d outage requeues, %d launch retries; each must be > 0",
			outages, requeues, retries)
	}
	return failed, nil
}

// measureEndToEnd replays the batch in passes for the given time (at least
// one pass), setting each trace up afresh before its replay, and reduces
// the passes to the end-to-end metrics. Every pass must reproduce the
// first pass's results exactly.
func measureEndToEnd(w spec, seed int64, seconds int) outcome {
	var out outcome
	out.attempted = w.traces * w.jobsPerTrace
	var passes []cost
	var setups []float64
	var first []workload.Result
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < time.Duration(seconds)*time.Second {
		var pc cost
		results := make([]workload.Result, w.traces)
		costs, err := forEachTrace(w, seed, func(i int, tr *workload.Trace) error {
			r, c, err := timedReplay(tr)
			results[i] = r
			pc.add(c)
			return err
		})
		if err != nil {
			out.checkErr = err
			return out
		}
		for _, c := range costs {
			setups = append(setups, c.total.Seconds())
		}
		if first == nil {
			first = results
			if out.failed, err = checkResults(w, results); err != nil {
				out.checkErr = err
				return out
			}
		} else {
			for i := range results {
				if results[i] != first[i] {
					out.checkErr = fmt.Errorf("trace %d of the batch: replay is not deterministic: %v then %v",
						i, first[i], results[i])
					return out
				}
			}
		}
		passes = append(passes, pc)
	}

	jobs := float64(out.attempted)
	var perSec, cpuUS, allocs, allocKB []float64
	for _, pc := range passes {
		perSec = append(perSec, jobs/pc.wall.Seconds())
		cpuUS = append(cpuUS, float64(pc.cpu.Microseconds())/jobs)
		allocs = append(allocs, float64(pc.mallocs)/jobs)
		allocKB = append(allocKB, float64(pc.bytes)/1024/jobs)
	}
	var makespan, shareErr []float64
	for _, r := range first {
		makespan = append(makespan, r.MakespanSeconds)
		shareErr = append(shareErr, r.ShareErrorMax)
	}
	n, k := len(passes), len(first)
	out.metrics = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"jobs_per_s", median(perSec), "1/s", n},
		{"cpu_us_per_job", median(cpuUS), "us", n},
		{"allocs_per_job", median(allocs), "count", n},
		{"alloc_kb_per_job", median(allocKB), "KiB", n},
		{"max_rss_mb", maxRSSMB(), "MiB", 1},
		{"sim_makespan_s", median(makespan), "s", k},
		{"sim_share_err_max", median(shareErr), "share", k},
	}
	return out
}
