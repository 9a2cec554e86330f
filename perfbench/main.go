// Command replaybench is the repository's benchmark: it replays batches of
// generated traces through workload -> sim -> sched -> SimBackend ->
// capacity and reports end-to-end metrics (--trace 0) or per-layer metrics
// from a separately traced run (--trace 1). The replay is single-threaded
// and open-loop in virtual time: each trace fixes its arrivals whatever the
// scheduler's speed. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload calm --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a table of every metric with its
// unit and sample count goes to standard error. --workload all runs every
// workload in both modes and prefixes each metric with "<workload>/". The
// exit code is 1 when a correctness check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replaybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: overload, calm, storm, or all")
	seed := fs.Int64("seed", 1, "run seed; the batch's trace seeds derive from it")
	seconds := fs.Int("seconds", 15, "end-to-end measurement time in seconds (at least one pass runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "replaybench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	var runs []spec
	if *name == "all" {
		runs = workloads
	} else if w, ok := lookup(*name); ok {
		runs = []spec{w}
	} else {
		fmt.Fprintf(stderr, "replaybench: unknown workload %q\n", *name)
		return 2
	}

	type result struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]reportedValue `json:"metrics"`
	}
	res := result{Correct: true, Metrics: make(map[string]reportedValue)}
	for _, w := range runs {
		modes := []bool{*trace == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			out := runOnce(w, *seed, *seconds, traced, stderr)
			if out.checkErr != nil {
				fmt.Fprintf(stderr, "replaybench: %s: check failed: %v\n", w.name, out.checkErr)
				res.Correct = false
			}
			res.Attempted += out.attempted
			res.Failed += out.failed
			for _, m := range out.metrics {
				key := m.name
				if len(runs) > 1 {
					key = w.name + "/" + m.name
				}
				res.Metrics[key] = reportedValue{Value: m.value, Unit: m.unit}
			}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "replaybench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type reportedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnce runs one mode of the workload and prints the metric table to w.
func runOnce(ws spec, seed int64, seconds int, traced bool, w io.Writer) outcome {
	start := time.Now()
	var out outcome
	mode := "end-to-end"
	if traced {
		mode = "per-layer"
		out = measureLayers(ws, seed)
	} else {
		out = measureEndToEnd(ws, seed, seconds)
	}
	fmt.Fprintf(w, "# %s (%s): seed %d, %d traces x %d jobs, %d failed, %.1fs\n",
		ws.name, mode, seed, ws.traces, ws.jobsPerTrace, out.failed, time.Since(start).Seconds())
	for _, m := range out.metrics {
		fmt.Fprintf(w, "%-32s %16.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	return out
}
