package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"
)

// toyScale runs every workload in about a second: the same code paths with
// a population small enough for the test suite.
var toyScale = scale{
	Functions: 120, Days: 3, TrainDays: 2,
	Pops:         2,
	ServePops:    2,
	StoreShards:  2,
	Rate:         4000,
	RetrainEvery: 720,
	MinUnits:     1,
	DecidePasses: 2,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func toyRun(t *testing.T, workload string, traced, perturb bool) (*output, *report) {
	t.Helper()
	out, rep, err := run(config{
		Workload: workload,
		Seed:     3,
		Budget:   time.Nanosecond,
		Traced:   traced,
		Work:     t.TempDir(),
		Scale:    toyScale,
		perturb:  perturb,
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, rep
}

// TestSpecMatchesCode holds BENCHMARK.json and the metric tables together:
// the same workloads, and the same metric names with the same units.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for name := range workloads {
		if !slices.Contains(names, name) {
			t.Errorf("workload %s missing from BENCHMARK.json", name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code runs %d", len(names), len(workloads))
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		code []metricDef
	}{
		{"end_to_end", spec.EndToEnd, endToEnd},
		{"per_layer", spec.PerLayer, perLayer()},
	} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].Name || m.Unit != c.code[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json says %s (%s), the code %s (%s)",
					c.kind, i, m.Name, m.Unit, c.code[i].Name, c.code[i].Unit)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at toy scale, untraced
// and traced, and checks the result line: outputs correct, every metric of
// the pass present with its unit, and no end-to-end metric zero.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			out, rep := toyRun(t, name, traced, false)
			if !out.Correct {
				t.Fatalf("%s traced=%v: outputs incorrect: %v", name, traced, rep.errs)
			}
			if out.Attempted < 1 || out.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", name, traced, out.Attempted, out.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %s, want %s", name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			if traced && out.Metrics["bench.layer_cover_frac"].Value <= 0 {
				t.Errorf("%s: traced pass covered nothing", name)
			}
		}
	}
}

// TestPerturbedReferenceTrips corrupts the reference each workload checks
// its outputs against and expects the run to report incorrect outputs.
func TestPerturbedReferenceTrips(t *testing.T) {
	for name := range workloads {
		out, rep := toyRun(t, name, false, true)
		if out.Correct || len(rep.errs) == 0 {
			t.Errorf("%s: a perturbed reference passed the output check", name)
		}
	}
}

func TestStepCostTakesPerSlotMedian(t *testing.T) {
	pops := perPop{}
	ms := time.Millisecond
	stepCost(pops, [][]time.Duration{
		{1 * ms, 9 * ms, 0, 3 * ms},
		{5 * ms, 2 * ms, 0, 4 * ms},
		{2 * ms, 1 * ms, 0, 5 * ms},
	})
	// Per-slot medians 2, 2, 4 ms; the third slot was never stepped.
	rep := newReport(nil)
	pops.report(rep)
	if got := rep.values["decide_p50_ms"]; got != 2 {
		t.Errorf("p50 = %v ms, want 2", got)
	}
	if got := rep.values["decide_p99_ms"]; got != 4 {
		t.Errorf("p99 = %v ms, want 4", got)
	}
}

// TestPopSeedsAreDistinct checks that no two (seed, population) pairs give
// math/rand the same source: it reduces a seed modulo 2³¹−1, so nearby
// workload seeds must not share populations after that reduction.
func TestPopSeedsAreDistinct(t *testing.T) {
	const mod = 1<<31 - 1
	seen := map[int64]string{}
	for seed := int64(-3); seed <= 200; seed++ {
		for j := range 8 {
			r := popSeed(seed, j) % mod
			if r < 0 {
				r += mod
			}
			at := fmt.Sprintf("seed %d population %d", seed, j)
			if prev, ok := seen[r]; ok {
				t.Fatalf("%s and %s give the same generator source", prev, at)
			}
			seen[r] = at
		}
	}
}
