// Command perfbench is the fronthaul middlebox's slot-level benchmark. It
// runs one workload for a fixed time, checks every output, and prints one
// JSON result as its last line of standard output: the end-to-end metrics
// (--trace 0) or the per-layer metrics of a separate traced run
// (--trace 1). See README.md for the workloads and metrics.
//
//	go run . --workload fwd-4prb --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name    = flag.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames()))
		seed    = flag.Uint64("seed", 1, "seed of the workload's inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := runOpts{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setups}
	if o.trace {
		o.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	}
	res, rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]record{"record": rec}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed its correctness checks: %v\n", o.workload, rec.Problems)
		os.Exit(1)
	}
}

// run dispatches to the end-to-end or the traced run.
func run(o runOpts) (result, record, error) {
	if o.trace {
		return runTraced(o, os.Stdout)
	}
	return runEndToEnd(o)
}
