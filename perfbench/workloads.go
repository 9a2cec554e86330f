package main

import (
	"math/rand"

	"repro/internal/faults"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spec is one benchmark workload: a batch of independent traces drawn from
// the same generator config, replayed back to back. A run's metrics pool
// the whole batch, because one trace's replay cost depends so strongly on
// its draw of heavy-tailed gangs that a single trace cannot tell two seeds
// of the same code apart from two versions of it.
type spec struct {
	name string

	// rateScale multiplies every tenant's BaseRatePerHour.
	rateScale float64
	// horizon bounds each trace's arrivals; jobsPerTrace caps them and is
	// sized to bind first (the guards check that it did).
	horizon      sim.Time
	jobsPerTrace int
	traces       int

	// faults, when set, is the fault schedule shape; Seed and Horizon are
	// filled per trace. Fault-free workloads run the same pipeline with an
	// empty schedule.
	faults *faults.Config

	// minQueueMax is the validity floor on sched.queue_len_max (0: none).
	minQueueMax int
}

// standardTenants is the four-tenant mix of workload.StandardConfig at the
// time the benchmark was written, kept here as data so that recalibrating
// the repository's standard trace cannot silently change the benchmark's
// inputs.
func standardTenants(rateScale float64) []workload.TenantProfile {
	ts := []workload.TenantProfile{
		{
			Name: "ana", Weight: 3, BaseRatePerHour: 900,
			DiurnalAmplitude: 0.6, PeakHour: 14,
			WorkersLogMean: 0.7, WorkersLogSigma: 0.6, MaxWorkers: 16,
			MinSeconds: 20, ParetoAlpha: 2.2, MaxSeconds: 1200,
		},
		{
			Name: "etl", Weight: 2, BaseRatePerHour: 450,
			DiurnalAmplitude: 0.5, PeakHour: 2,
			WorkersLogMean: 1.4, WorkersLogSigma: 0.7, MaxWorkers: 48,
			MinSeconds: 45, ParetoAlpha: 1.6, MaxSeconds: 7200,
			BurstRatePerHour: 0.5, BurstFactor: 3, BurstMeanMinutes: 15,
		},
		{
			Name: "sci", Weight: 1, BaseRatePerHour: 120,
			DiurnalAmplitude: 0.3, PeakHour: 9,
			WorkersLogMean: 2.3, WorkersLogSigma: 0.6, MaxWorkers: 96,
			MinSeconds: 120, ParetoAlpha: 1.4, MaxSeconds: 14400,
			BurstRatePerHour: 0.25, BurstFactor: 4, BurstMeanMinutes: 20,
		},
		{
			Name: "spot", Weight: 1, BaseRatePerHour: 500,
			DiurnalAmplitude: 0.2, PeakHour: 20,
			WorkersLogMean: 1.0, WorkersLogSigma: 0.5, MaxWorkers: 24,
			MinSeconds: 30, ParetoAlpha: 1.8, MaxSeconds: 3600,
			SpotFraction: 0.8, SpotBid: 0.05,
		},
	}
	for i := range ts {
		ts[i].BaseRatePerHour *= rateScale
	}
	return ts
}

// stormFaults is shaped like faults.Storm (full and partial outages, flaps,
// deploy faults and WAN degradation under the same diurnal curve), with
// outage and flap rates raised and outages shortened so that outage
// requeues plus launch retries reach about 5% of jobs while capacity stays
// up most of the time. Deploy faults arm one strike at a time: at three
// strikes per arm, the occasional job exhausted its launch retries and
// failed.
var stormFaults = faults.Config{
	OutageRatePerHour:      10,
	OutageMeanMinutes:      3,
	PartialFraction:        0.3,
	FlapRatePerHour:        0.5,
	DeployFaultRatePerHour: 0.5,
	DeployFaultStrikes:     1,
	DegradeRatePerHour:     1,
	DiurnalAmplitude:       0.3,
	PeakHour:               14,
}

// workloads are the benchmark's workloads, in the order --workload all
// runs them (README.md says why each was chosen). Overload arrives at the
// standard rates, an offered load of about 1.4x the 256 cores, for about
// 2.5 h per trace, so queues grow without bound. Calm and storm arrive at
// 0.4x the standard rates, an offered load of about 0.55, for about 37 h
// per trace, so queues stay short; storm adds the fault schedule.
var workloads = []spec{
	{
		name:         "overload",
		rateScale:    1,
		horizon:      6 * sim.Hour,
		jobsPerTrace: 5000,
		traces:       144,
		minQueueMax:  1000,
	},
	{
		name:         "calm",
		rateScale:    0.4,
		horizon:      48 * sim.Hour,
		jobsPerTrace: 30000,
		traces:       48,
	},
	{
		name:         "storm",
		rateScale:    0.4,
		horizon:      48 * sim.Hour,
		jobsPerTrace: 30000,
		traces:       48,
		faults:       &stormFaults,
	},
}

func lookup(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// replayConfig is every workload's replay configuration: preemption on,
// log-normal overrun with sigma 0.5, and nothing else set — so that
// deleting a scheduler knob never needs a benchmark change.
func replayConfig() workload.ReplayConfig {
	return workload.ReplayConfig{
		Sched:        sched.Config{EnablePreemption: true},
		OverrunSigma: 0.5,
	}
}

// generatorConfig is the workload's generator config for one trace seed.
func (w spec) generatorConfig(seed int64) workload.Config {
	return workload.Config{
		Seed:        seed,
		Description: "replay benchmark: " + w.name,
		Horizon:     w.horizon,
		MaxJobs:     w.jobsPerTrace,
		Tenants:     standardTenants(w.rateScale),
		Storms: workload.StormProfile{
			RatePerHour: 1.5,
			Clouds:      []string{"cloud0", "cloud1", "cloud2", "cloud3"},
			MaxStrikes:  8,
		},
	}
}

// faultConfig is the workload's fault schedule config for one seed: the
// storm shape over the trace's whole horizon, or an empty schedule.
func (w spec) faultConfig(seed int64) faults.Config {
	var c faults.Config
	if w.faults != nil {
		c = *w.faults
		c.Clouds = faults.Targets(workload.DefaultClouds())
	}
	c.Seed = seed
	c.Horizon = w.horizon
	return c
}

// traceSeeds derives the batch's generator and fault seeds from the run
// seed: the same run seed always gives the same batch.
func (w spec) traceSeeds(seed int64) (gen, flt []int64) {
	rng := rand.New(rand.NewSource(seed))
	gen = make([]int64, w.traces)
	flt = make([]int64, w.traces)
	for i := range gen {
		gen[i], flt[i] = rng.Int63(), rng.Int63()
	}
	return gen, flt
}
