// Engine equivalence for the deadline-based baselines: the timing-wheel
// agenda must reproduce the map-backed agenda oracle (agenda_test.go) bit
// for bit, under every execution engine.
package baselines_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// scanOnly hides every optional interface of the wrapped policy (delta
// tracking, NextWake, sharding, config hashing), so sim.Run falls back to
// the per-slot accounting scan and never batch-advances.
type scanOnly struct{ sim.Policy }

func eqvSettings(seed int64) experiments.Settings {
	s := experiments.DefaultSettings()
	s.Functions = 300
	s.Days = 6
	s.TrainDays = 4
	s.Seed = seed
	return s
}

// assertSameResult compares two results modulo Overhead (wall-clock noise).
func assertSameResult(t *testing.T, label string, want, got *sim.Result) {
	t.Helper()
	w, g := *want, *got
	w.Overhead, g.Overhead = 0, 0
	if reflect.DeepEqual(&w, &g) {
		return
	}
	t.Errorf("%s: results differ: cold=%d/%d wmt=%d/%d mem=%d/%d emcr=%v/%v max=%d/%d",
		label,
		w.TotalColdStarts, g.TotalColdStarts,
		w.TotalWMT, g.TotalWMT,
		w.TotalMemory, g.TotalMemory,
		w.EMCRSum, g.EMCRSum,
		w.MaxLoaded, g.MaxLoaded)
	for fid := range w.PerFunc {
		if w.PerFunc[fid] != g.PerFunc[fid] {
			t.Errorf("%s: f%d per-func want=%+v got=%+v", label, fid, w.PerFunc[fid], g.PerFunc[fid])
			return
		}
	}
}

// TestWheelBaselineEquivalence is the baseline counterpart of core's
// TestSPESEventEngineEquivalence: every deadline-based baseline runs on the
// shared timing wheel, and this matrix pins it bit-identical to the
// map-agenda oracle across seeds, non-stationary scenarios, and the
// unsharded, sharded, and streamed execution engines. The reference runs
// map-agenda + dense accounting scan (scanOnly also hides NextWake, so the
// reference can never batch-advance); the wheel runs use delta accounting
// and are therefore also exercising the simulator's idle-span skipping.
func TestWheelBaselineEquivalence(t *testing.T) {
	mks := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"Fixed", func() sim.Policy { return baselines.NewFixedKeepAlive(10) }},
		{"HybridFunction", func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) }},
		{"HybridApplication", func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) }},
		{"Defuse", func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) }},
	}
	for _, scenario := range []string{"drift", "flashcrowd"} {
		for seed := int64(1); seed <= 2; seed++ {
			s := eqvSettings(seed)
			if err := s.ApplyScenario(scenario); err != nil {
				t.Fatal(err)
			}
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				t.Fatal(err)
			}
			src, err := experiments.StreamSource(s, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, mk := range mks {
				label := func(engine string) string {
					return fmt.Sprintf("%s %s seed %d: %s", mk.name, scenario, seed, engine)
				}
				reference := func() sim.Policy { return baselines.WithMapAgenda(mk.mk()) }
				ref, err := sim.Run(scanOnly{reference()}, train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
					t.Fatalf("%s: degenerate workload: %+v", label("reference"), ref)
				}
				cases := []struct {
					engine string
					policy sim.Policy
					opts   sim.Options
				}{
					{"map-agenda + delta accounting", reference(), sim.Options{}},
					{"wheel + scan accounting", scanOnly{mk.mk()}, sim.Options{}},
					{"wheel + delta accounting", mk.mk(), sim.Options{}},
					{"wheel sharded x3", mk.mk(), sim.Options{Shards: 3}},
					{"wheel streamed x2", mk.mk(), sim.Options{Source: src}},
				}
				for _, c := range cases {
					got, err := sim.Run(c.policy, train, simTr, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(c.engine), ref, got)
				}
			}
		}
	}
}
