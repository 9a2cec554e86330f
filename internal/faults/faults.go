// Package faults is the failure-injection engine: a kernel-driven, seeded
// generator of fault schedules — cloud outages (full crash, partial host
// loss, flapping), transient deploy failures, and WAN-link degradation —
// emitted as first-class workload trace events, so a fault schedule replays
// through the same JSONL pipeline as the jobs it torments. Fault arrivals
// are modeled exactly the way internal/workload models job arrivals:
// inhomogeneous-Poisson processes on a private sim.Kernel, thinned against a
// diurnal rate curve, every draw taken from the kernel's seeded RNG inside
// kernel callbacks. Same Config → byte-identical schedule; injected into a
// trace and replayed twice with the same seed → byte-identical outcomes.
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Target is one cloud the engine may strike. Cores is the cloud's capacity,
// used to size partial host losses.
type Target struct {
	Name  string
	Cores int
}

// Config drives Generate. Zero rates disable the corresponding process.
type Config struct {
	Seed    int64
	Horizon sim.Time // virtual span faults may arrive in (0 = 24 h)
	Clouds  []Target

	// Outages: a Poisson process at OutageRatePerHour striking one cloud
	// uniformly; the cloud stays down for an exponential duration with mean
	// OutageMeanMinutes (0 = 15). PartialFraction of outages are partial
	// host losses — the cloud loses a uniform fraction of up to
	// PartialMaxFraction (0 = 0.5) of its cores instead of crashing.
	OutageRatePerHour  float64
	OutageMeanMinutes  float64
	PartialFraction    float64
	PartialMaxFraction float64

	// Flaps: a Poisson process at FlapRatePerHour opening flap episodes —
	// FlapCycles (0 = 4) quick full-crash/restore cycles on one cloud, with
	// exponential down/up times of mean FlapDownSeconds (0 = 45) and
	// FlapUpSeconds (0 = 30). Flapping is what the scheduler's quarantine
	// policy exists to absorb.
	FlapRatePerHour float64
	FlapCycles      int
	FlapDownSeconds float64
	FlapUpSeconds   float64

	// Transient deploy failures: a Poisson process at DeployFaultRatePerHour
	// arming DeployFaultStrikes (0 = 3) failures on one cloud — the next
	// launches touching it fail transiently and exercise the retry path.
	DeployFaultRatePerHour float64
	DeployFaultStrikes     int

	// WAN degradation: a Poisson process at DegradeRatePerHour degrading one
	// directed cloud pair to DegradeFactor (0 = 0.25) of its base bandwidth
	// for an exponential duration with mean DegradeMeanMinutes (0 = 30).
	DegradeRatePerHour float64
	DegradeMeanMinutes float64
	DegradeFactor      float64

	// Diurnal modulation of every arrival process, matching the workload
	// generator's curve: rate(t) = base·(1 + A·cos(2π·(hour(t)−peak)/24)).
	DiurnalAmplitude float64
	PeakHour         float64
}

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = 24 * sim.Hour
	}
	if c.OutageMeanMinutes <= 0 {
		c.OutageMeanMinutes = 15
	}
	if c.PartialMaxFraction <= 0 || c.PartialMaxFraction > 1 {
		c.PartialMaxFraction = 0.5
	}
	if c.FlapCycles <= 0 {
		c.FlapCycles = 4
	}
	if c.FlapDownSeconds <= 0 {
		c.FlapDownSeconds = 45
	}
	if c.FlapUpSeconds <= 0 {
		c.FlapUpSeconds = 30
	}
	if c.DeployFaultStrikes <= 0 {
		c.DeployFaultStrikes = 3
	}
	if c.DegradeMeanMinutes <= 0 {
		c.DegradeMeanMinutes = 30
	}
	if c.DegradeFactor <= 0 || c.DegradeFactor >= 1 {
		c.DegradeFactor = 0.25
	}
	if c.DiurnalAmplitude < 0 {
		c.DiurnalAmplitude = 0
	}
	if c.DiurnalAmplitude > 1 {
		c.DiurnalAmplitude = 1
	}
	return c
}

// Storm is the outage-storm preset the chaos smoke and E13/E14 use: full
// and partial outages arriving through the whole horizon, a few flap
// episodes (quarantine fuel), transient deploy faults, and WAN degradation.
func Storm(seed int64, clouds []Target) Config {
	return Config{
		Seed:                   seed,
		Clouds:                 clouds,
		OutageRatePerHour:      1.0,
		PartialFraction:        0.3,
		FlapRatePerHour:        0.15,
		DeployFaultRatePerHour: 0.5,
		DegradeRatePerHour:     0.5,
		DiurnalAmplitude:       0.3,
		PeakHour:               14,
	}
}

// Schedule is a generated fault schedule: time-ordered workload trace
// events, ready to inject into a job trace or save standalone.
type Schedule struct {
	Seed   int64
	Events []workload.Event
}

// Generate runs the fault arrival processes to the horizon and returns the
// time-ordered schedule. Panics on an empty cloud set with any nonzero
// rate — a config bug, not an input file.
func Generate(cfg Config) *Schedule {
	cfg = cfg.withDefaults()
	anyRate := cfg.OutageRatePerHour > 0 || cfg.FlapRatePerHour > 0 ||
		cfg.DeployFaultRatePerHour > 0 || cfg.DegradeRatePerHour > 0
	if anyRate && len(cfg.Clouds) == 0 {
		panic("faults: Generate needs clouds")
	}
	k := sim.NewKernel(cfg.Seed)
	rng := k.Rand()
	sch := &Schedule{Seed: cfg.Seed}
	expGap := func(perHour float64) sim.Time {
		return sim.Time(rng.ExpFloat64() / perHour * float64(sim.Hour))
	}
	// accept thins a candidate arrival against the diurnal curve; with zero
	// amplitude every candidate passes.
	accept := func(base, lambdaMax float64) bool {
		if cfg.DiurnalAmplitude == 0 {
			return true
		}
		hour := k.Now().Seconds() / 3600
		rate := base * (1 + cfg.DiurnalAmplitude*math.Cos(2*math.Pi*(hour-cfg.PeakHour)/24))
		return rng.Float64()*lambdaMax < rate
	}
	// downUntil serializes outages per cloud: a strike on a cloud that is
	// already down (or flapping) is skipped, so every outage event has
	// exactly one matching restore.
	downUntil := make(map[string]sim.Time)
	pick := func() Target { return cfg.Clouds[rng.Intn(len(cfg.Clouds))] }
	emit := func(ev workload.Event) {
		ev.At = int64(k.Now())
		sch.Events = append(sch.Events, ev)
	}

	if cfg.OutageRatePerHour > 0 {
		lambdaMax := cfg.OutageRatePerHour * (1 + cfg.DiurnalAmplitude)
		var strike func()
		strike = func() {
			now := k.Now()
			if now > cfg.Horizon {
				return
			}
			if accept(cfg.OutageRatePerHour, lambdaMax) {
				c := pick()
				if now >= downUntil[c.Name] {
					dur := sim.Time(rng.ExpFloat64() * cfg.OutageMeanMinutes * float64(sim.Minute))
					if dur < sim.Second {
						dur = sim.Second
					}
					downUntil[c.Name] = now + dur
					ev := workload.Event{Kind: workload.KindOutage, Cloud: c.Name}
					if cfg.PartialFraction > 0 && rng.Float64() < cfg.PartialFraction {
						lost := int(rng.Float64() * cfg.PartialMaxFraction * float64(c.Cores))
						if lost < 1 {
							lost = 1
						}
						ev.Partial = lost
					}
					emit(ev)
					k.Schedule(dur, func() {
						emit(workload.Event{Kind: workload.KindRestore, Cloud: c.Name})
					})
				}
			}
			k.Schedule(expGap(lambdaMax), strike)
		}
		k.Schedule(expGap(lambdaMax), strike)
	}

	if cfg.FlapRatePerHour > 0 {
		lambdaMax := cfg.FlapRatePerHour * (1 + cfg.DiurnalAmplitude)
		var episode func()
		episode = func() {
			now := k.Now()
			if now > cfg.Horizon {
				return
			}
			if accept(cfg.FlapRatePerHour, lambdaMax) {
				c := pick()
				if now >= downUntil[c.Name] {
					// One flap cycle: crash, restore after a short down time,
					// re-crash after a short up time — FlapCycles times.
					cycles := cfg.FlapCycles
					var cycle func()
					cycle = func() {
						emit(workload.Event{Kind: workload.KindOutage, Cloud: c.Name})
						down := sim.Time(rng.ExpFloat64() * cfg.FlapDownSeconds * float64(sim.Second))
						if down < sim.Second {
							down = sim.Second
						}
						k.Schedule(down, func() {
							emit(workload.Event{Kind: workload.KindRestore, Cloud: c.Name})
							cycles--
							if cycles > 0 {
								up := sim.Time(rng.ExpFloat64() * cfg.FlapUpSeconds * float64(sim.Second))
								if up < sim.Second {
									up = sim.Second
								}
								downUntil[c.Name] = k.Now() + up + sim.Hour // hold the slot through the next cycle
								k.Schedule(up, cycle)
							} else {
								downUntil[c.Name] = k.Now()
							}
						})
					}
					downUntil[c.Name] = now + sim.Hour // reserve the cloud for the episode
					cycle()
				}
			}
			k.Schedule(expGap(lambdaMax), episode)
		}
		k.Schedule(expGap(lambdaMax), episode)
	}

	if cfg.DeployFaultRatePerHour > 0 {
		lambdaMax := cfg.DeployFaultRatePerHour * (1 + cfg.DiurnalAmplitude)
		var arm func()
		arm = func() {
			if k.Now() > cfg.Horizon {
				return
			}
			if accept(cfg.DeployFaultRatePerHour, lambdaMax) {
				emit(workload.Event{
					Kind:    workload.KindDeployFault,
					Cloud:   pick().Name,
					Strikes: cfg.DeployFaultStrikes,
				})
			}
			k.Schedule(expGap(lambdaMax), arm)
		}
		k.Schedule(expGap(lambdaMax), arm)
	}

	if cfg.DegradeRatePerHour > 0 && len(cfg.Clouds) > 1 {
		lambdaMax := cfg.DegradeRatePerHour * (1 + cfg.DiurnalAmplitude)
		var degrade func()
		degrade = func() {
			if k.Now() > cfg.Horizon {
				return
			}
			if accept(cfg.DegradeRatePerHour, lambdaMax) {
				a := pick()
				b := pick()
				for b.Name == a.Name {
					b = pick()
				}
				emit(workload.Event{
					Kind: workload.KindDegrade, Cloud: a.Name, Peer: b.Name,
					Factor: cfg.DegradeFactor,
				})
				dur := sim.Time(rng.ExpFloat64() * cfg.DegradeMeanMinutes * float64(sim.Minute))
				if dur < sim.Second {
					dur = sim.Second
				}
				k.Schedule(dur, func() {
					emit(workload.Event{
						Kind: workload.KindDegrade, Cloud: a.Name, Peer: b.Name,
						Factor: 1,
					})
				})
			}
			k.Schedule(expGap(lambdaMax), degrade)
		}
		k.Schedule(expGap(lambdaMax), degrade)
	}

	k.Run()
	// Kernel firing order is (time, seq), so events are already sorted.
	return sch
}

// Targets adapts replay cloud specs to fault targets.
func Targets(clouds []workload.CloudSpec) []Target {
	ts := make([]Target, len(clouds))
	for i, c := range clouds {
		ts[i] = Target{Name: c.Name, Cores: c.Cores}
	}
	return ts
}

// InjectInto merges the schedule into a job trace, returning a new trace
// with the same header and the union of both event streams in time order
// (job events first on ties, so a submit and an outage at the same instant
// replay submit-first, deterministically).
func (s *Schedule) InjectInto(tr *workload.Trace) *workload.Trace {
	out := &workload.Trace{Header: tr.Header}
	out.Events = make([]workload.Event, 0, len(tr.Events)+len(s.Events))
	i, j := 0, 0
	for i < len(tr.Events) && j < len(s.Events) {
		if tr.Events[i].At <= s.Events[j].At {
			out.Events = append(out.Events, tr.Events[i])
			i++
		} else {
			out.Events = append(out.Events, s.Events[j])
			j++
		}
	}
	out.Events = append(out.Events, tr.Events[i:]...)
	out.Events = append(out.Events, s.Events[j:]...)
	return out
}

// SaveFile writes the schedule standalone as a JSONL trace whose events are
// all fault episodes (loadable with LoadFile or replayed after InjectInto).
func (s *Schedule) SaveFile(path string) error {
	tr := &workload.Trace{Header: workload.Header{
		Seed:        s.Seed,
		Description: "fault schedule",
	}}
	tr.Events = s.Events
	return tr.SaveFile(path)
}

// LoadFile reads a standalone fault schedule written by SaveFile, rejecting
// files that carry job events.
func LoadFile(path string) (*Schedule, error) {
	tr, err := workload.LoadFile(path)
	if err != nil {
		return nil, err
	}
	for i := range tr.Events {
		switch tr.Events[i].Kind {
		case workload.KindOutage, workload.KindRestore, workload.KindDegrade,
			workload.KindDeployFault, workload.KindRevoke:
		default:
			return nil, fmt.Errorf("faults: %s: line %d is a %q event, not a fault",
				path, i+2, tr.Events[i].Kind)
		}
	}
	return &Schedule{Seed: tr.Header.Seed, Events: tr.Events}, nil
}
