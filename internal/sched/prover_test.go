package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// proverCase is one seeded random view and job shape: 1–6 clouds with
// totals > 0, working free cores in [−cpw, total], workers 1–40, cpw 1–4.
type proverCase struct {
	b   *SimBackend
	v   CloudView
	job *Job
}

func randomProverCase(rng *rand.Rand, k *sim.Kernel) proverCase {
	b := NewSimBackend(k)
	cpw := 1 + rng.Intn(4)
	free := make(map[string]int)
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		name := fmt.Sprintf("c%d", i)
		total := 1 + rng.Intn(48)
		b.AddCloud(name, total, 1, 0.05+0.01*float64(rng.Intn(5)))
		free[name] = rng.Intn(total+cpw+1) - cpw
	}
	job := &Job{ID: "J1", Spec: JobSpec{Tenant: "t", Workers: 1 + rng.Intn(40), CoresPerWorker: cpw}}
	return proverCase{b: b, v: viewOf(b.Clouds(), free), job: job}
}

func (c proverCase) String() string {
	return fmt.Sprintf("workers=%d cpw=%d free=%v", c.job.Spec.Workers, c.job.Spec.CoresPerWorker, c.v.free)
}

// checkPlanFits fails when a plan does not place exactly the job's workers
// within the view's free cores.
func checkPlanFits(t *testing.T, c proverCase, p Plan) {
	t.Helper()
	cpw := c.job.coresPerWorker()
	if p.Workers() != c.job.workers() {
		t.Errorf("%v: plan %v places %d workers, want %d", c, p, p.Workers(), c.job.workers())
	}
	for _, m := range p.Members {
		if m.Workers*cpw > c.v.Free(m.Cloud) {
			t.Errorf("%v: plan %v takes %d cores on %s, %d free", c, p, m.Workers*cpw, m.Cloud, c.v.Free(m.Cloud))
		}
	}
}

// TestBestScoreProverExact pins the fit prover, the cycle's only placement
// skip: BestScore.ProvablyUnplaceable must equal Choose(...).Empty() on
// every view and shape, and a non-empty plan must fit the view.
func TestBestScoreProverExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	proved := 0
	for trial := 0; trial < 3000; trial++ {
		c := randomProverCase(rng, sim.NewKernel(1))
		s := New(c.b, Config{})
		unplaceable := BestScore{}.ProvablyUnplaceable(c.job, &c.v)
		p := BestScore{}.Choose(s, c.job, &c.v)
		if unplaceable != p.Empty() {
			t.Fatalf("%v: prover says unplaceable=%v, Choose returned %v", c, unplaceable, p)
		}
		if unplaceable {
			proved++
		} else {
			checkPlanFits(t, c, p)
		}
	}
	if proved == 0 || proved == 3000 {
		t.Fatalf("prover returned the same answer on every trial (%d unplaceable); generator broken", proved)
	}
}

// TestRandomPlacementProverSkipsRNG: when RandomPlacement's prover proves a
// job unplaceable, Choose returns an empty plan and draws nothing from the
// kernel RNG (the next draw equals a twin kernel's), so skipping Choose
// keeps the RNG stream. When it cannot prove it, Choose places the job.
func TestRandomPlacementProverSkipsRNG(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	proved := 0
	for trial := 0; trial < 3000; trial++ {
		k, twin := sim.NewKernel(int64(trial)), sim.NewKernel(int64(trial))
		c := randomProverCase(rng, k)
		s := New(c.b, Config{Placement: RandomPlacement{}})
		unplaceable := RandomPlacement{}.ProvablyUnplaceable(c.job, &c.v)
		p := RandomPlacement{}.Choose(s, c.job, &c.v)
		if !unplaceable {
			if p.Empty() {
				t.Fatalf("%v: prover could not prove emptiness, yet Choose returned an empty plan", c)
			}
			checkPlanFits(t, c, p)
			continue
		}
		proved++
		if !p.Empty() {
			t.Fatalf("%v: prover says unplaceable, Choose returned %v", c, p)
		}
		if got, want := k.Rand().Int63(), twin.Rand().Int63(); got != want {
			t.Fatalf("%v: Choose drew from the kernel RNG on a proven-empty job", c)
		}
	}
	if proved == 0 || proved == 3000 {
		t.Fatalf("prover returned the same answer on every trial (%d unplaceable); generator broken", proved)
	}
}
