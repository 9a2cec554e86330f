package faults

import (
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

func stormClouds() []Target {
	return []Target{
		{Name: "cloud0", Cores: 64},
		{Name: "cloud1", Cores: 64},
		{Name: "cloud2", Cores: 64},
	}
}

// TestGenerateDeterministic: same config, byte-identical schedule.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Storm(42, stormClouds())
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a.Events) == 0 {
		t.Fatal("storm generated no events")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("runs generated %d vs %d events", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	c := Generate(Storm(43, stormClouds()))
	if len(c.Events) == len(a.Events) {
		same := true
		for i := range c.Events {
			if c.Events[i] != a.Events[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds generated identical schedules")
		}
	}
}

// TestOutageRestorePairing: every outage has exactly one later restore on
// the same cloud before that cloud's next outage, and events are
// time-ordered — the invariant the replay driver's episode tracking needs.
func TestOutageRestorePairing(t *testing.T) {
	s := Generate(Storm(7, stormClouds()))
	down := map[string]bool{}
	var last int64
	outages, restores := 0, 0
	for i, ev := range s.Events {
		if ev.At < last {
			t.Fatalf("event %d at %d before predecessor at %d", i, ev.At, last)
		}
		last = ev.At
		switch ev.Kind {
		case workload.KindOutage:
			if down[ev.Cloud] {
				t.Fatalf("event %d: outage on %s while already down", i, ev.Cloud)
			}
			down[ev.Cloud] = true
			outages++
		case workload.KindRestore:
			if !down[ev.Cloud] {
				t.Fatalf("event %d: restore on %s while not down", i, ev.Cloud)
			}
			down[ev.Cloud] = false
			restores++
		case workload.KindDeployFault:
			if ev.Strikes <= 0 {
				t.Fatalf("event %d: deploy fault with %d strikes", i, ev.Strikes)
			}
		case workload.KindDegrade:
			if ev.Peer == "" || ev.Peer == ev.Cloud || ev.Factor <= 0 {
				t.Fatalf("event %d: malformed degrade %+v", i, ev)
			}
		default:
			t.Fatalf("event %d: unexpected kind %q", i, ev.Kind)
		}
	}
	if outages == 0 {
		t.Fatal("storm generated no outages")
	}
	if outages != restores {
		t.Fatalf("%d outages but %d restores", outages, restores)
	}
}

// TestInjectIntoOrdering: the merged trace is time-ordered with job events
// first on ties, and carries the union of both streams.
func TestInjectIntoOrdering(t *testing.T) {
	jobs := &workload.Trace{
		Header: workload.Header{Seed: 1, Tenants: []workload.Tenant{{Name: "t1", Weight: 1}}},
		Events: []workload.Event{
			{At: 0, Kind: workload.KindSubmit, Tenant: "t1", Name: "j0", Workers: 1, Cores: 1, EstimateSeconds: 10},
			{At: 1000, Kind: workload.KindSubmit, Tenant: "t1", Name: "j1", Workers: 1, Cores: 1, EstimateSeconds: 10},
		},
	}
	sch := &Schedule{Seed: 2, Events: []workload.Event{
		{At: 500, Kind: workload.KindOutage, Cloud: "cloud0"},
		{At: 1000, Kind: workload.KindRestore, Cloud: "cloud0"},
	}}
	out := sch.InjectInto(jobs)
	if len(out.Events) != 4 {
		t.Fatalf("merged %d events, want 4", len(out.Events))
	}
	kinds := []string{out.Events[0].Kind, out.Events[1].Kind, out.Events[2].Kind, out.Events[3].Kind}
	want := []string{workload.KindSubmit, workload.KindOutage, workload.KindSubmit, workload.KindRestore}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("merged order %v, want %v (job events first on ties)", kinds, want)
		}
	}
	var orig int64
	for _, ev := range out.Events {
		if ev.At < orig {
			t.Fatal("merged trace not time-ordered")
		}
		orig = ev.At
	}
}

// TestSaveLoadRoundTrip: a standalone schedule survives the JSONL round
// trip byte for byte, and LoadFile rejects traces carrying job events.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "storm.jsonl")
	s := Generate(Storm(11, stormClouds()))
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != s.Seed || len(loaded.Events) != len(s.Events) {
		t.Fatalf("loaded seed=%d n=%d, want seed=%d n=%d",
			loaded.Seed, len(loaded.Events), s.Seed, len(s.Events))
	}
	for i := range s.Events {
		if loaded.Events[i] != s.Events[i] {
			t.Fatalf("event %d changed in round trip: %+v vs %+v", i, loaded.Events[i], s.Events[i])
		}
	}

	bad := &workload.Trace{Header: workload.Header{Seed: 1}}
	bad.Events = []workload.Event{{At: 0, Kind: workload.KindSubmit, Tenant: "t", Name: "j", Workers: 1, Cores: 1, EstimateSeconds: 1}}
	badPath := filepath.Join(dir, "jobs.jsonl")
	if err := bad.SaveFile(badPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(badPath); err == nil {
		t.Fatal("LoadFile accepted a trace with job events")
	}
}

// TestFaultInjectedReplayDeterminism: a job trace with a storm injected
// replays to identical Results — fault columns included — on two same-seed
// runs, and the injected round survives a JSONL round trip. The 100k-job
// variant of this check is the CI chaos smoke.
func TestFaultInjectedReplayDeterminism(t *testing.T) {
	clouds := make([]workload.CloudSpec, 8)
	for i := range clouds {
		clouds[i] = workload.CloudSpec{
			Name: string(rune('a' + i)), Cores: 48,
			Speed: 1.0 + 0.05*float64(i%3), Price: 0.06 + 0.01*float64(i%4),
		}
	}
	jobs := workload.Generate(workload.StandardConfig(42, 5000))
	storm := Generate(Storm(42, Targets(clouds)))
	tr := storm.InjectInto(jobs)

	// The injected trace must survive the JSONL round trip unchanged —
	// fault fields are first-class schema.
	dir := t.TempDir()
	path := filepath.Join(dir, "mixed.jsonl")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Events) != len(tr.Events) {
		t.Fatalf("round trip changed event count: %d vs %d", len(loaded.Events), len(tr.Events))
	}

	run := func() workload.Result {
		cfg := workload.ReplayConfig{Clouds: clouds, OverrunSigma: 0.4}
		cfg.Sched.EnablePreemption = true
		r, err := workload.Replay(loaded, cfg)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		return r
	}
	first := run()
	if first.Outages == 0 || first.OutageRequeues == 0 {
		t.Fatalf("storm replay exercised no outage paths: %+v", first)
	}
	if first.Completed == 0 {
		t.Fatalf("nothing completed under the storm: %+v", first)
	}
	if r := run(); r != first {
		t.Fatalf("same-seed replays diverged:\n first: %+v\n again: %+v", first, r)
	}
}

// TestHorizonBound: no event is stamped past the configured horizon plus
// the longest episode tail (restores may trail the last in-horizon strike).
func TestHorizonBound(t *testing.T) {
	cfg := Storm(5, stormClouds())
	cfg.Horizon = 2 * sim.Hour
	s := Generate(cfg)
	var strikes int
	for _, ev := range s.Events {
		if ev.Kind == workload.KindOutage && ev.At > int64(cfg.Horizon) {
			t.Fatalf("outage at %d past the %d horizon", ev.At, int64(cfg.Horizon))
		}
		strikes++
	}
	if strikes == 0 {
		t.Fatal("2-hour storm generated nothing")
	}
}
