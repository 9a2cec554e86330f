package workload_test

import (
	"bytes"
	"testing"

	"repro/internal/faults"
	"repro/internal/workload"
)

// FuzzLoad feeds arbitrary bytes to the trace loader. Load must return an
// error or a trace, never panic, and any trace it accepts must reach a
// fixed point after one save: Save → Load → Save reproduces the first
// save byte for byte.
//
// Run it beyond the seed corpus with
//
//	go test -run '^$' -fuzz FuzzLoad -fuzztime 20s ./internal/workload
func FuzzLoad(f *testing.F) {
	jobs := workload.Generate(workload.StandardConfig(7, 12))
	f.Add(saveTrace(f, jobs))
	storm := faults.Generate(faults.Storm(7, faults.Targets(workload.DefaultClouds())))
	f.Add(saveTrace(f, storm.InjectInto(jobs)))

	const header = `{"version":1,"seed":1,"tenants":[{"name":"a","weight":1}]}` + "\n"
	for _, s := range []string{
		"",
		"\n",
		"{}\n",
		`{"version":2,"seed":1,"tenants":[]}` + "\n",
		header + `{"at":5,"kind":"submit","tenant":"a"}` + "\n",
		header + `{"at":9,"kind":"submit","tenant":"a","workers":2}` + "\n" + `{"at":3,"kind":"submit","tenant":"a","workers":1}` + "\n",
		header + `{"at":1,"kind":"bogus"}` + "\n",
		header + `{"at":1,"kind":"sub`,
		header + `{"at":1,"kind":"degrade","cloud":"a","peer":"b"}` + "\n",
		header + `{"at":1,"kind":"outage"}` + "\n",
		header + `{"at":1e3,"kind":"submit","tenant":"a","workers":1}` + "\n",
		header + "\n",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := workload.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := saveTrace(t, tr)
		again, err := workload.Load(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("a saved trace does not load: %v\n%s", err, first)
		}
		if second := saveTrace(t, again); !bytes.Equal(first, second) {
			t.Fatalf("Save → Load → Save is not a fixed point:\n%s\n---\n%s", first, second)
		}
	})
}

func saveTrace(tb testing.TB, tr *workload.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}
