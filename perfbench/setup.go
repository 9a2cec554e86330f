package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/workload"
)

// setupCost is what preparing one trace cost.
type setupCost struct {
	total    time.Duration // the whole preparation
	generate time.Duration // workload.Generate
	faultGen time.Duration // faults.Generate
	inject   time.Duration // Schedule.InjectInto
	save     time.Duration // first Save
	load     time.Duration // Load

	bytes       int // saved trace size
	faultEvents int
	lastFault   sim.Time // latest fault event (0 without faults)
}

// prepare sets up one trace the way `skyctl replay -trace` consumes one —
// generated, merged with its fault schedule, saved, and loaded back — and
// checks the round trip: saving the loaded trace must reproduce the first
// save byte for byte. The replay runs on the loaded copy.
func prepare(w spec, genSeed, faultSeed int64) (*workload.Trace, setupCost, error) {
	var c setupCost
	t0 := time.Now()
	tr := workload.Generate(w.generatorConfig(genSeed))
	t1 := time.Now()
	sch := faults.Generate(w.faultConfig(faultSeed))
	t2 := time.Now()
	tr = sch.InjectInto(tr)
	t3 := time.Now()
	var first bytes.Buffer
	if err := tr.Save(&first); err != nil {
		return nil, c, fmt.Errorf("save trace %d: %w", genSeed, err)
	}
	t4 := time.Now()
	loaded, err := workload.Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		return nil, c, fmt.Errorf("load trace %d: %w", genSeed, err)
	}
	t5 := time.Now()
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil {
		return nil, c, fmt.Errorf("save loaded trace %d: %w", genSeed, err)
	}
	c.total = time.Since(t0)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		return nil, c, fmt.Errorf("trace %d: Save -> Load -> Save is not byte-identical (%d vs %d bytes)",
			genSeed, first.Len(), second.Len())
	}
	if n := loaded.Jobs(); n != w.jobsPerTrace {
		return nil, c, fmt.Errorf("trace %d has %d jobs, want %d: the horizon no longer lets the job cap bind",
			genSeed, n, w.jobsPerTrace)
	}
	c.generate, c.faultGen, c.inject = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	c.save, c.load = t4.Sub(t3), t5.Sub(t4)
	c.bytes = first.Len()
	c.faultEvents = len(sch.Events)
	if n := len(sch.Events); n > 0 {
		c.lastFault = sim.Time(sch.Events[n-1].At)
	}
	return loaded, c, nil
}

// forEachTrace sets up the run's batch one trace at a time and hands each
// to fn, so that only one trace is resident while it replays, as in a
// standalone replay: a whole batch held in memory would raise the heap's
// GC goal and hide the replay's own collection cost. It returns every
// trace's set-up cost, and fails when a storm's faults stop before its
// first 24 h are over.
func forEachTrace(w spec, seed int64, fn func(i int, tr *workload.Trace) error) ([]setupCost, error) {
	gen, flt := w.traceSeeds(seed)
	costs := make([]setupCost, len(gen))
	var lastFault sim.Time
	for i := range gen {
		tr, c, err := prepare(w, gen[i], flt[i])
		if err != nil {
			return nil, err
		}
		costs[i] = c
		if c.lastFault > lastFault {
			lastFault = c.lastFault
		}
		if err := fn(i, tr); err != nil {
			return nil, fmt.Errorf("trace %d: %w", gen[i], err)
		}
	}
	if w.faults != nil && lastFault <= 24*sim.Hour {
		return nil, fmt.Errorf("no fault arrives after the first 24 h (last at %v): the schedule no longer covers the trace", lastFault)
	}
	return costs, nil
}
