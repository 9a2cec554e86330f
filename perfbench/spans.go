package main

import "sort"

// bucket is where a span's self time is booked: one per layer boundary the
// traced driver crosses. A kernel step opens as bucketStep and is rebooked
// to the bucket its classification names once the step has run.
type bucket int

const (
	bucketStep bucket = iota // placeholder until the step is classified

	bucketSim   // kernel: event pop plus callbacks no other span covers
	bucketCycle // scheduler cycle, minus the backend calls it makes

	bucketInject // workload: the driver's handling of one instant's trace events
	bucketReduce // workload: reducing the drained run to a Result

	bucketSubmit   // sched.Scheduler.Submit
	bucketNotify   // sched.Scheduler.Notify
	bucketPoll     // sched.Scheduler.Poll
	bucketComplete // the scheduler's completion callback

	bucketLaunch  // SimBackend.Launch
	bucketClouds  // SimBackend.Clouds and AppendClouds
	bucketBackend // every other SimBackend call (bandwidth, outages, deploy faults)

	nBuckets
)

// frame is one open span.
type frame struct {
	b            bucket
	start, child int64
}

// spans keeps a stack of open spans and books each closed span's self time
// — its duration minus the time its child spans cover — to its bucket.
// Durations are in the units of clock (nanoseconds in the driver).
type spans struct {
	clock func() int64
	stack []frame
	self  [nBuckets]int64
	calls [nBuckets]int64
}

func newSpans(clock func() int64) *spans {
	return &spans{clock: clock, stack: make([]frame, 0, 8)}
}

func (s *spans) begin(b bucket) {
	s.stack = append(s.stack, frame{b: b, start: s.clock()})
}

// end closes the innermost span, books it to its own bucket, and returns
// its self time.
func (s *spans) end() int64 { return s.endAs(s.stack[len(s.stack)-1].b) }

// endAs closes the innermost span and books it to b instead of the bucket
// it was opened with.
func (s *spans) endAs(b bucket) int64 {
	n := len(s.stack) - 1
	f := s.stack[n]
	s.stack = s.stack[:n]
	d := s.clock() - f.start
	self := d - f.child
	s.self[b] += self
	s.calls[b]++
	if n > 0 {
		s.stack[n-1].child += d
	}
	return self
}

// stepKind classifies one kernel step by what ran inside it.
type stepKind int

const (
	stepInject   stepKind = iota // the driver's trace-event injector fired
	stepComplete                 // a launched job's completion reached the scheduler
	stepCycle                    // a scheduling cycle ran
	stepOther                    // anything else: retry kicks, disarmed completions, grow callbacks
	nStepKinds
)

var stepKindNames = [nStepKinds]string{"inject", "complete", "cycle", "other"}

// classifyStep names a step from the markers the driver's callbacks set
// while it ran and from how far the scheduler's cycle counter moved. Each
// step fires exactly one kernel callback, so at most one marker is set; a
// cycle is only ever a callback of its own (Submit, Notify and completions
// schedule cycles, they never run one inline).
func classifyStep(injected, completed bool, cycles int) stepKind {
	switch {
	case injected:
		return stepInject
	case completed:
		return stepComplete
	case cycles > 0:
		return stepCycle
	}
	return stepOther
}

// percentile returns the nearest-rank percentile of sorted values — the
// definition workload.Replay uses for its wait percentiles.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of values (the mean of the middle two for an
// even count) without reordering the caller's slice.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
