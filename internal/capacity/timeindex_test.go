package capacity

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/sim"
)

// flatIndex is the brute-force oracle for timeIndex: an unordered slice.
type flatIndex []timedCores

func (f flatIndex) coresBy(t sim.Time) int {
	n := 0
	for _, e := range f {
		if e.at <= t {
			n += e.cores
		}
	}
	return n
}

func (f flatIndex) after(t sim.Time) []timedCores {
	var out []timedCores
	for _, e := range f {
		if e.at > t {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].id < out[j].id
	})
	return out
}

func checkIndex(t *testing.T, step int, x *timeIndex, f flatIndex, probes []sim.Time) {
	t.Helper()
	if x.size() != len(f) {
		t.Fatalf("step %d: size=%d, oracle has %d", step, x.size(), len(f))
	}
	// Structural invariants: buckets non-empty, bounded, globally sorted,
	// prefix sums exact.
	total, prev := 0, timedCores{at: -1 << 62}
	for bi, b := range x.buckets {
		if len(b.ents) == 0 || len(b.ents) > idxBucketMax {
			t.Fatalf("step %d: bucket %d has %d entries", step, bi, len(b.ents))
		}
		run := 0
		for j, e := range b.ents {
			if e.at < prev.at || (e.at == prev.at && e.id <= prev.id) {
				t.Fatalf("step %d: bucket %d entry %d out of order", step, bi, j)
			}
			prev = e
			run += e.cores
			if b.cum[j] != run {
				t.Fatalf("step %d: bucket %d cum[%d]=%d, want %d", step, bi, j, b.cum[j], run)
			}
		}
		total += run
		if x.bcum[bi] != total {
			t.Fatalf("step %d: bcum[%d]=%d, want %d", step, bi, x.bcum[bi], total)
		}
	}
	for _, at := range probes {
		if got, want := x.coresBy(at), f.coresBy(at); got != want {
			t.Fatalf("step %d: coresBy(%v)=%d, oracle %d", step, at, got, want)
		}
		want := f.after(at)
		it := x.iterAfter(at)
		for k := 0; ; k++ {
			e, ok := it.next()
			if !ok {
				if k != len(want) {
					t.Fatalf("step %d: iterAfter(%v) yielded %d entries, oracle %d", step, at, k, len(want))
				}
				break
			}
			if k >= len(want) || e != want[k] {
				t.Fatalf("step %d: iterAfter(%v)[%d]=%+v, oracle %+v", step, at, k, e, want[k])
			}
		}
	}
}

// TestTimeIndexRandomized drives thousands of inserts and removes — enough
// churn to force bucket splits and merges many times over — checking the
// bucket invariants, coresBy, and iterAfter against a flat-slice oracle
// after every step batch.
func TestTimeIndexRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x timeIndex
	var f flatIndex
	id := 0
	probes := []sim.Time{0, 1, 100, 5000, 1 << 40}
	for step := 0; step < 4000; step++ {
		grow := len(f) < 64 || (rng.Intn(3) != 0 && len(f) < 900)
		if grow {
			id++
			at := sim.Time(rng.Intn(2000))
			if rng.Intn(8) == 0 {
				at = probes[rng.Intn(len(probes))] // collide with probe instants
			}
			cores := 1 + rng.Intn(32)
			x.add(at, id, cores)
			f = append(f, timedCores{at: at, id: id, cores: cores})
		} else {
			i := rng.Intn(len(f))
			e := f[i]
			x.remove(e.at, e.id)
			f = append(f[:i], f[i+1:]...)
		}
		if step%50 == 0 || step > 3900 {
			dyn := append(probes, sim.Time(rng.Intn(2200)))
			checkIndex(t, step, &x, f, dyn)
		}
	}
	// Drain completely: removal must collapse every bucket.
	for _, e := range f {
		x.remove(e.at, e.id)
	}
	if x.size() != 0 || len(x.buckets) != 0 {
		t.Fatalf("drained index: size=%d buckets=%d", x.size(), len(x.buckets))
	}
}

// TestTimeIndexRemoveMissing: removing an absent (at, id) pair — including
// one that orders past every bucket — must not disturb the index.
func TestTimeIndexRemoveMissing(t *testing.T) {
	var x timeIndex
	x.remove(5, 1) // empty index
	x.add(10, 1, 4)
	x.add(20, 2, 8)
	x.remove(10, 2)     // at exists, id does not
	x.remove(15, 3)     // between entries
	x.remove(99999, 42) // past the last bucket
	if x.size() != 2 || x.coresBy(20) != 12 {
		t.Fatalf("index disturbed: size=%d coresBy(20)=%d", x.size(), x.coresBy(20))
	}
}

// TestLedgerConcurrentSmoke hammers the ledger from many goroutines under
// -race: mixed acquires/releases/probes/evictions on shared clouds. The
// assertions are the ledger's own invariants at the end; the point is that
// the lock makes interleavings safe at all.
func TestLedgerConcurrentSmoke(t *testing.T) {
	l := New()
	l.AddCloud("x", 256)
	l.AddCloud("y", 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			clouds := []string{"x", "y"}
			var mine []*Lease
			for i := 0; i < 500; i++ {
				c := clouds[rng.Intn(2)]
				switch rng.Intn(5) {
				case 0, 1:
					if le, err := l.AcquireUntil(c, 1+rng.Intn(4), sim.Time(rng.Intn(1000))*sim.Second); err == nil {
						mine = append(mine, le)
					}
				case 2:
					if len(mine) > 0 {
						k := rng.Intn(len(mine))
						mine[k].Release()
						mine = append(mine[:k], mine[k+1:]...)
					}
				case 3:
					l.Probe(c, rng.Intn(16), sim.Time(rng.Intn(1000))*sim.Second)
					l.Headroom(c, 0)
					l.Generation()
				case 4:
					if len(mine) > 0 && rng.Intn(4) == 0 {
						k := rng.Intn(len(mine))
						if sh, err := l.Evict(mine[k], sim.Time(1000)*sim.Second); err == nil && sh != nil {
							mine[k] = sh
						}
					}
				}
			}
			for _, le := range mine {
				le.Release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
	for _, c := range []string{"x", "y"} {
		if l.Held(c) != 0 || l.Reserved(c) != 0 {
			t.Fatalf("%s: held=%d reserved=%d after all releases", c, l.Held(c), l.Reserved(c))
		}
		if l.Free(c) != 256-l.Committed(c) {
			t.Fatalf("%s: free=%d committed=%d total=256", c, l.Free(c), l.Committed(c))
		}
	}
}

// TestLedgerReadRaceStress hammers the locked read surface (Free, Headroom,
// Probe) from reader goroutines while writers acquire, reserve, release,
// fail, and restore clouds — the -race check that every read takes the
// lock. Readers race real writers, so they assert only what holds for any
// single consistent state: free cores stay within [0, total], headroom
// within [0, total], a zero-core probe of a known cloud always passes, and
// a probe past the total never does. After the writers quiesce, every
// cloud is restored and empty, and Probe must agree with Headroom exactly.
func TestLedgerReadRaceStress(t *testing.T) {
	clouds := []string{"a", "b", "c", "d", "e", "f"}
	totals := map[string]int{}
	for i, c := range clouds {
		totals[c] = 64 + 32*i
	}
	for round := 0; round < 4; round++ {
		l := New()
		for _, c := range clouds {
			l.AddCloud(c, totals[c])
		}
		var rwg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func(seed int64) {
				defer rwg.Done()
				rng := rand.New(rand.NewSource(seed))
				for {
					select {
					case <-stop:
						return
					default:
					}
					c := clouds[rng.Intn(len(clouds))]
					total := totals[c]
					at := sim.FromSeconds(float64(rng.Intn(500)))
					if f := l.Free(c); f < 0 || f > total {
						t.Errorf("Free(%s) = %d outside [0, %d]", c, f, total)
						return
					}
					if h := l.Headroom(c, at); h < 0 || h > total {
						t.Errorf("Headroom(%s) = %d outside [0, %d]", c, h, total)
						return
					}
					if !l.Probe(c, 0, at) {
						t.Errorf("Probe(%s, 0) false for a known cloud", c)
						return
					}
					if l.Probe(c, total+1, at) {
						t.Errorf("Probe(%s, %d) true past the cloud's total", c, total+1)
						return
					}
				}
			}(int64(100 + r))
		}
		var wwg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wwg.Add(1)
			go func(seed int64) {
				defer wwg.Done()
				rng := rand.New(rand.NewSource(seed))
				var mine []*Lease
				for op := 0; op < 3000; op++ {
					c := clouds[rng.Intn(len(clouds))]
					switch rng.Intn(8) {
					case 0, 1, 2:
						var end sim.Time
						if rng.Intn(2) == 0 {
							end = sim.FromSeconds(float64(1 + rng.Intn(400)))
						}
						if le, err := l.AcquireUntil(c, 1+rng.Intn(4), end); err == nil {
							mine = append(mine, le)
						}
					case 3:
						if le, err := l.Reserve(c, 1+rng.Intn(8), sim.FromSeconds(float64(1+rng.Intn(400)))); err == nil {
							mine = append(mine, le)
						}
					case 4, 5:
						if len(mine) > 0 {
							i := rng.Intn(len(mine))
							mine[i].Release()
							mine = append(mine[:i], mine[i+1:]...)
						}
					case 6:
						l.FailCloud(c)
					case 7:
						l.RestoreCloud(c)
					}
				}
				for _, le := range mine {
					le.Release()
				}
			}(int64(200 + w))
		}
		wwg.Wait()
		close(stop)
		rwg.Wait()
		for _, c := range clouds {
			if err := l.RestoreCloud(c); err != nil {
				t.Fatal(err)
			}
			total := totals[c]
			if f := l.Free(c); f != total {
				t.Fatalf("round %d: quiesced Free(%s) = %d, want %d", round, c, f, total)
			}
			for _, at := range []sim.Time{0, sim.FromSeconds(10), sim.FromSeconds(500)} {
				h := l.Headroom(c, at)
				if h != total {
					t.Fatalf("round %d: quiesced Headroom(%s, %v) = %d, want %d", round, c, at, h, total)
				}
				if !l.Probe(c, h, at) || l.Probe(c, h+1, at) {
					t.Fatalf("round %d: Probe(%s) disagrees with Headroom %d at %v", round, c, h, at)
				}
			}
		}
	}
}
