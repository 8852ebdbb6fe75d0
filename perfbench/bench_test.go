package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-tests check the
// emitted metrics against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short returns options for a run of a few slots.
func short(workload string, seed uint64, trace bool) runOpts {
	return runOpts{workload: workload, seed: seed, seconds: 0.2, trace: trace, setups: 2, maxSlots: 20}
}

func runShort(t *testing.T, o runOpts) (result, record) {
	t.Helper()
	var res result
	var rec record
	var err error
	if o.trace {
		res, rec, err = runTraced(o, io.Discard)
	} else {
		res, rec, err = runEndToEnd(o)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", o.workload, o.seed, err)
	}
	return res, rec
}

// TestShortRunsEmitEveryMetric runs a few slots of every workload, untraced
// and traced, and checks that each passes its correctness gate and emits
// exactly the metrics BENCHMARK.json names, with their units.
func TestShortRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			res, rec := runShort(t, short(wl.Name, 1, trace))
			if !res.Correct || res.Failed != 0 || rec.LossRatio != 0 {
				t.Fatalf("%s trace=%v failed its gate: %+v", wl.Name, trace, rec.Problems)
			}
			if rec.Seed != 1 || rec.GoVersion == "" || rec.GOMAXPROCS == 0 || rec.NumCPU == 0 {
				t.Fatalf("%s: incomplete run record %+v", wl.Name, rec)
			}
			want := map[string]string{}
			if trace {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Fatalf("%s trace=%v: metric %s missing", wl.Name, trace, name)
				}
				if m.Unit != unit {
					t.Fatalf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, name, m.Unit, unit)
				}
				if !trace && m.Value <= 0 {
					t.Fatalf("%s: end-to-end metric %s = %v, want > 0", wl.Name, name, m.Value)
				}
			}
		}
	}
}

// TestGateFiresOnDroppedFrame drops one frame inside the App wrapper: the
// run must fail and count the loss.
func TestGateFiresOnDroppedFrame(t *testing.T) {
	for _, c := range []struct {
		workload string
		dropAt   int64
	}{
		{"fwd-4prb", 3*896 + 17},
		{"das-273prb", 3*71 + 5},
	} {
		o := short(c.workload, 1, false)
		o.dropAt = c.dropAt
		res, rec := runShort(t, o)
		if res.Correct || res.Failed == 0 || rec.LossRatio <= 0 {
			t.Fatalf("%s: dropping frame %d passed the gate: correct=%v failed=%d loss=%v",
				c.workload, c.dropAt, res.Correct, res.Failed, rec.LossRatio)
		}
		if len(rec.Problems) == 0 {
			t.Fatalf("%s: failed run names no problem", c.workload)
		}
	}
}

// TestSecondSeed runs every workload on a second seed: the gate must pass
// on both, the inputs must differ, and the metrics must stay in range, so
// that they are not tuned to one seed.
func TestSecondSeed(t *testing.T) {
	for _, name := range workloadNames() {
		a, _ := runShort(t, short(name, 1, false))
		b, _ := runShort(t, short(name, 2, false))
		if !a.Correct || !b.Correct {
			t.Fatalf("%s: gate failed on a seed", name)
		}
		for _, m := range []string{"frames_per_s", "allocs_per_frame"} {
			x, y := a.Metrics[m].Value, b.Metrics[m].Value
			if x > 3*y || y > 3*x {
				t.Fatalf("%s: %s differs across seeds beyond 3×: %v vs %v", name, m, x, y)
			}
		}
		if inputDigest(t, name, 1) == inputDigest(t, name, 2) {
			t.Fatalf("%s: seeds 1 and 2 built identical inputs", name)
		}
	}
}

// inputDigest summarizes the first slot a workload's seed produces.
func inputDigest(t *testing.T, name string, seed uint64) uint64 {
	t.Helper()
	w, err := workloads[name](buildOpts{seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer w.finish(&checks{})
	if m, ok := w.(*metroWorkload); ok {
		m.capture = true
	}
	w.stage()
	w.slot()
	var l layerStats
	w.layers(&l)
	var h uint64 = 14695981039346656037
	for _, f := range l.frames {
		for _, b := range f {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	return h ^ uint64(l.offered)
}
