package sched

import (
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Tenant is one share-holder in the federation: a weighted queue of jobs
// plus the usage accounting that drives arbitration.
type Tenant struct {
	Name   string
	Weight float64

	queue []*Job
	// usage is charged core-seconds: an estimate is charged at dispatch
	// (so one tenant cannot capture the whole federation within a single
	// cycle) and trued up to actual duration at completion. With
	// Config.UsageHalfLife set it decays exponentially (see decay), so the
	// arbiter weighs recent consumption, not all of history.
	usage float64
	// usageAt is the instant usage was last decayed to.
	usageAt sim.Time
	// delivered is actual core-seconds of finished work, the quantity
	// Shares reports.
	delivered float64
	// scan is this cycle's queue scan position (the former per-cycle idx
	// map); scanCycle tells stale positions from a previous cycle apart.
	scan      int
	scanCycle int
	// demand is the queue's core-demand histogram: one entry per distinct
	// queueDemand among queued jobs, ascending, so demand[0].cores is the
	// tenant's smallest queued demand — what the tenant demand gate in
	// nextTenant compares against the free cores. Kept in step with queue
	// by addDemand/dropDemand at every insert and removal.
	demand []demandCount
	// boosted mirrors "patternOf[name] is all-to-all or ring" — the only
	// question placement scoring asks of the pattern map, kept here so the
	// per-candidate scoring loops skip the string map lookup.
	boosted bool
}

// demandCount is one demand-histogram bucket: how many queued jobs need
// exactly cores cores.
type demandCount struct{ cores, n int }

// queueDemand is a queued job's demand-histogram key: its core demand, or 0
// for an external job, which runs on capacity the caller already owns — no
// free-core count can rule it out, so it must never be gated.
func queueDemand(j *Job) int {
	if j.Spec.External() {
		return 0
	}
	return j.Cores()
}

// addDemand counts a job entering the tenant's queue. A tenant's jobs come
// in a handful of shapes, so the linear walk over distinct demands is
// shorter than a binary search's setup.
func (t *Tenant) addDemand(j *Job) {
	c := queueDemand(j)
	i := 0
	for i < len(t.demand) && t.demand[i].cores < c {
		i++
	}
	if i < len(t.demand) && t.demand[i].cores == c {
		t.demand[i].n++
		return
	}
	t.demand = append(t.demand, demandCount{})
	copy(t.demand[i+1:], t.demand[i:])
	t.demand[i] = demandCount{cores: c, n: 1}
}

// dropDemand uncounts a job leaving the tenant's queue.
func (t *Tenant) dropDemand(j *Job) {
	c := queueDemand(j)
	for i := range t.demand {
		if t.demand[i].cores != c {
			continue
		}
		if t.demand[i].n--; t.demand[i].n == 0 {
			t.demand = append(t.demand[:i], t.demand[i+1:]...)
		}
		return
	}
	panic("sched: demand histogram out of sync")
}

// decay brings the tenant's charged usage forward to now under the
// configured half-life: usage halves every UsageHalfLife of wall time, so a
// tenant idle for several half-lives returns near parity instead of with a
// banked deficit that would let it monopolize the next cycles.
func (s *Scheduler) decay(t *Tenant) {
	now := s.K.Now()
	hl := s.cfg.UsageHalfLife
	if hl > 0 && now > t.usageAt && t.usage != 0 {
		// Decay magnitude regardless of sign, so a (transient) negative
		// balance also relaxes toward parity instead of freezing.
		t.usage *= math.Exp2(-float64(now-t.usageAt) / float64(hl))
	}
	t.usageAt = now
}

// AddTenant registers a tenant with the given weight (replacing the weight
// if the tenant exists). Weight <= 0 is treated as 1.
func (s *Scheduler) AddTenant(name string, weight float64) *Tenant {
	if weight <= 0 {
		weight = 1
	}
	t := s.tenants[name]
	if t == nil {
		t = &Tenant{Name: name}
		if pt := s.patternOf[name]; pt == PatternAllToAll || pt == PatternRing {
			t.boosted = true // a detection can precede the tenant's first job
		}
		s.tenants[name] = t
		// Keep the scan list name-sorted: nextTenant's in-order walk is what
		// makes equal fair-share keys break ties by name.
		i := sort.Search(len(s.tenantList), func(k int) bool { return s.tenantList[k].Name > name })
		s.tenantList = append(s.tenantList, nil)
		copy(s.tenantList[i+1:], s.tenantList[i:])
		s.tenantList[i] = t
	}
	t.Weight = weight
	return t
}

// Tenants returns tenant names, sorted.
func (s *Scheduler) Tenants() []string {
	out := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TenantQueueLen returns the number of queued jobs for one tenant.
func (s *Scheduler) TenantQueueLen(name string) int {
	if t := s.tenants[name]; t != nil {
		return len(t.queue)
	}
	return 0
}

// nextTenant picks the tenant with the lowest usage-per-weight among those
// with an unexamined queued job (each tenant's scan field tracks this
// cycle's position). The walk is over the name-sorted tenant list — no map
// iteration — and keeps the first of equal keys, which is exactly the
// former break-ties-by-name rule.
// Usage is decayed once per cycle (decayTenants) rather than per call:
// virtual time does not advance inside a cycle, so re-decaying on every
// scan step of the same cycle is a no-op by construction.
//
// freeCores is the tenant demand gate: gateOff before this cycle's
// reservation exists, afterwards Σ max(free, 0) over the working view. A
// tenant whose smallest queued demand exceeds it is exhausted for the
// cycle without visiting its queue (see gateTenant for why that cannot
// change a decision).
func (s *Scheduler) nextTenant(freeCores int, sc *scanCounts) *Tenant {
	var best *Tenant
	var bestKey float64
	for _, t := range s.tenantList {
		if t.scanCycle != s.cycleNum {
			t.scan, t.scanCycle = 0, s.cycleNum
		}
		if t.scan >= len(t.queue) {
			continue
		}
		if freeCores != gateOff && t.demand[0].cores > freeCores {
			s.gateTenant(t, freeCores, sc)
			continue
		}
		key := t.usage / t.Weight
		if best == nil || key < bestKey {
			best, bestKey = t, key
		}
	}
	return best
}

// gateOff is nextTenant's freeCores while no reservation is held.
const gateOff = -1

// gateTenant exhausts a gated tenant's queue for this cycle. Sound because
// once the reservation is set:
//   - a gang of Cores() cores cannot be placed by any policy when fewer
//     cores are free in total (the argument canFit rests on), and the
//     working free vector only shrinks for the rest of the cycle — the one
//     mid-cycle re-snapshot, in preemptFor, runs before the reservation
//     exists;
//   - a visit to an unplaceable job only advances the scan position and
//     the watermark and trace bookkeeping, and tenant keys change only on
//     dispatch, so every dispatching visit keeps its pick order;
//   - a skipped visit leaves the job's watermark record older or absent,
//     which only lets a later cycle run a placement the record would have
//     skipped — and a sound record only skips placements that fail;
//   - RandomPlacement's prover rejects these jobs before any RNG draw.
//
// The only visible difference is that the skipped jobs emit no block/wake
// trace events; one gate event per tenant and cycle stands in for them.
func (s *Scheduler) gateTenant(t *Tenant, freeCores int, sc *scanCounts) {
	sc.gateSkips += int64(len(t.queue) - t.scan)
	t.scan = len(t.queue)
	if s.tr != nil {
		s.trace(obs.TraceEvent{Kind: "gate", Tenant: t.Name,
			Workers: t.demand[0].cores, Cores: freeCores})
	}
}

// decayTenants brings every tenant's usage forward to the cycle's instant,
// so the scan loop's arbitration keys are decay-consistent without a decay
// call per nextTenant step.
func (s *Scheduler) decayTenants() {
	for _, t := range s.tenantList {
		s.decay(t)
	}
}

// charge books the dispatch-time estimate against the tenant's share.
// Elastic growth (deadline chasing, spot replacement) is deliberately not
// charged: replacement capacity restores the job's entitlement, and
// deadline growth is the tenant trading cloud cost for time — it is billed
// by the cloud, not by the share.
func (s *Scheduler) charge(t *Tenant, j *Job, estSeconds float64) {
	s.decay(t)
	j.charged = float64(j.Cores()) * estSeconds
	t.usage += j.charged
}

// trueUp replaces the dispatch estimate with the actual core-seconds the
// job held over time: the per-resize ledger (runCoreSeconds) accounts
// grow/shrink at the size the job had when the time elapsed, instead of
// retroactively applying the final size to the whole runtime. Under decay
// the charge has itself decayed inside t.usage since dispatch, so the
// amount backed out is the charge's decayed remainder — subtracting the
// full original would drive usage permanently negative.
func (s *Scheduler) trueUp(t *Tenant, j *Job, now sim.Time) {
	s.decay(t)
	charged := j.charged
	if hl := s.cfg.UsageHalfLife; hl > 0 && now > j.Started {
		charged *= math.Exp2(-float64(now-j.Started) / float64(hl))
	}
	actual := j.runCoreSeconds(now)
	t.usage += actual - charged
	t.delivered += actual
}

// Shares returns each tenant's fraction of delivered core-seconds
// (including running jobs' elapsed time at the sizes they actually held),
// the quantity that converges to the configured weights under saturation.
// Finished work is read from the per-tenant delivered aggregates and live
// work from the running list — no walk over archived history.
func (s *Scheduler) Shares() map[string]float64 {
	now := s.K.Now()
	raw := make(map[string]float64, len(s.tenants))
	for name, t := range s.tenants {
		raw[name] = t.delivered
	}
	for _, j := range s.running {
		if j.State == Running {
			raw[j.Spec.Tenant] += j.runCoreSeconds(now)
		}
	}
	// Sum in name-sorted tenant order, not map iteration order: the total
	// feeds eviction prices (traced, and a sort key for victim selection),
	// where a last-ulp wobble from a randomized accumulation order shows up
	// as run-to-run nondeterminism.
	var total float64
	for _, t := range s.tenantList {
		total += raw[t.Name]
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		if total > 0 {
			out[name] = v / total
		} else {
			out[name] = 0
		}
	}
	return out
}

// EntitledShares returns the weight-proportional target shares. The total
// is summed in name-sorted tenant order, as in Shares: with fractional
// weights a map-order sum differs in the last bits from run to run, and
// the entitlement feeds eviction prices.
func (s *Scheduler) EntitledShares() map[string]float64 {
	var total float64
	for _, t := range s.tenantList {
		total += t.Weight
	}
	out := make(map[string]float64, len(s.tenantList))
	for _, t := range s.tenantList {
		if total > 0 {
			out[t.Name] = t.Weight / total
		}
	}
	return out
}

// DeliveredCoreSeconds returns a tenant's finished core-seconds.
func (s *Scheduler) DeliveredCoreSeconds(name string) float64 {
	if t := s.tenants[name]; t != nil {
		return t.delivered
	}
	return 0
}
