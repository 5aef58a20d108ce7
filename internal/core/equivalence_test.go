// Engine equivalence: the event-driven SPES engine — unsharded, sharded,
// streamed and cached, with delta or scan accounting — must reproduce the
// per-slot scan oracle (dense_test.go) bit for bit. Every sim.Result field
// (cold starts, WMT, EMCR, memory, per-function metrics, type labels) is
// compared on seeded generator workloads.
package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// spesPolicy is the method set the scan-accounting wrapper keeps.
type spesPolicy interface {
	sim.Policy
	sim.TypeTagger
	sim.Retrainer
}

// scanOnly hides the wrapped policy's LoadDeltaTracker (and NextWake,
// NewShard, ConfigHash), so sim.Run falls back to the per-slot accounting
// scan; it still forwards type labels and retraining.
type scanOnly struct{ spesPolicy }

func scanAccounting(p sim.Policy) sim.Policy { return scanOnly{p.(spesPolicy)} }

func dense() sim.Policy { return core.NewDenseReference(core.DefaultConfig()) }
func event() sim.Policy { return core.New(core.DefaultConfig()) }

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
	for fid := range w.Types {
		if w.Types[fid] != g.Types[fid] {
			t.Errorf("%s: f%d type want=%s got=%s", label, fid, w.Types[fid], g.Types[fid])
			return
		}
	}
}

// runDenseReference runs the oracle with scan accounting and guards against
// a degenerate workload, which would make every comparison vacuous.
func runDenseReference(t *testing.T, label string, train, simTr *trace.Trace, opts sim.Options) *sim.Result {
	t.Helper()
	ref, err := sim.Run(scanAccounting(dense()), train, simTr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
		t.Fatalf("%s: degenerate reference workload: %+v", label, ref)
	}
	return ref
}

// TestSPESEventEngineEquivalence runs the event-driven SPES against the
// per-slot scan oracle on three seeded workloads, in every combination of
// scheduling engine × accounting mode, and requires identical results.
func TestSPESEventEngineEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, train, simTr, err := experiments.BuildWorkload(eqvSettings(seed))
		if err != nil {
			t.Fatal(err)
		}

		// Reference: dense engine, dense accounting scan.
		ref := runDenseReference(t, fmt.Sprintf("seed %d", seed), train, simTr, sim.Options{})

		// Streamed sources: same workload as the materialized traces above,
		// produced one shard at a time by the generator.
		src1, err := experiments.StreamSource(eqvSettings(seed), 1)
		if err != nil {
			t.Fatal(err)
		}
		src2, err := experiments.StreamSource(eqvSettings(seed), 2)
		if err != nil {
			t.Fatal(err)
		}
		src5, err := experiments.StreamSource(eqvSettings(seed), 5)
		if err != nil {
			t.Fatal(err)
		}

		cases := []struct {
			label  string
			policy sim.Policy
			opts   sim.Options
		}{
			{"event engine + delta accounting", event(), sim.Options{}},
			{"event engine + scan accounting", scanAccounting(event()), sim.Options{}},
			{"dense engine + delta accounting", dense(), sim.Options{}},
			{"sharded x2 event engine", event(), sim.Options{Shards: 2}},
			{"sharded x5 event engine", event(), sim.Options{Shards: 5}},
			{"sharded x3 dense engine", dense(), sim.Options{Shards: 3}},
			{"streamed x1 event engine", event(), sim.Options{Source: src1}},
			{"streamed x2 event engine", event(), sim.Options{Source: src2}},
			{"streamed x5 event engine", event(), sim.Options{Source: src5}},
			{"streamed x5 dense engine", dense(), sim.Options{Source: src5}},
			{"streamed x5 cached event engine", event(),
				sim.Options{Source: src5, Cache: sim.NewShardCache()}},
		}
		for _, c := range cases {
			got, err := sim.Run(c.policy, train, simTr, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, c.label, ref, got)
		}
	}
}

// TestShardedLargeNSparseEquivalence is the scale form of the engine
// equivalence: a 10k-function mostly-idle population (three seeds) must
// produce bit-identical sim.Results from the sharded, unsharded, and dense
// reference engines. This is the regime sharding exists for — the
// population is ~17x bench scale while the invocation volume stays small —
// so the test doubles as a guard that none of the engines' O(active)
// claims regress into O(n) correctness hacks. Skipped under -short (the
// race-detector CI job runs the unit suite with -short and exercises a
// small sharded run via cmd/eqvcheck instead).
func TestShardedLargeNSparseEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n equivalence skipped with -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := experiments.SparseSettings(10_000, seed)
		_, train, simTr, err := experiments.BuildWorkload(s)
		if err != nil {
			t.Fatal(err)
		}

		ref := runDenseReference(t, fmt.Sprintf("seed %d sparse", seed), train, simTr, sim.Options{})

		got, err := sim.Run(event(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, fmt.Sprintf("seed %d: event vs dense", seed), ref, got)

		for _, shards := range []int{4, 16} {
			sharded, err := sim.Run(event(), train, simTr, sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d: sharded x%d vs dense", seed, shards), ref, sharded)

			// Streamed form of the same run: the trace pair is never
			// materialized, shards are generated inside the workers.
			src, err := experiments.StreamSource(s, shards)
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := sim.RunStreamed(event(), src, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("seed %d: streamed x%d vs dense", seed, shards), ref, streamed)
		}
	}
}

// TestScenarioRetrainEquivalence runs SPES over non-stationary library
// scenarios, with and without online re-categorization, across every
// engine: the per-slot scan oracle (scan accounting), the event-driven
// engine (delta accounting), the sharded engine, and the streamed engine
// (cached and uncached) must all produce bit-identical results — pattern
// drift and function churn must not open any daylight between engines, and
// neither must mid-simulation retraining.
func TestScenarioRetrainEquivalence(t *testing.T) {
	for _, scenario := range []string{"drift", "churn", "flashcrowd", "deploy-wave"} {
		for _, retrainEvery := range []int{0, 1440} {
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

				label := func(engine string) string {
					return fmt.Sprintf("%s retrain=%d seed %d: %s", scenario, retrainEvery, seed, engine)
				}
				base := sim.Options{RetrainEvery: retrainEvery}
				ref := runDenseReference(t, label("reference"), train, simTr, base)

				cache := sim.NewShardCache()
				cases := []struct {
					engine string
					policy sim.Policy
					opts   sim.Options
				}{
					{"event+delta", event(), base},
					{"dense+delta", dense(), base},
					{"sharded x3", event(), sim.Options{Shards: 3, RetrainEvery: retrainEvery}},
					{"streamed x2", event(), sim.Options{Source: src, RetrainEvery: retrainEvery}},
					{"streamed x2 cached cold", event(),
						sim.Options{Source: src, Cache: cache, RetrainEvery: retrainEvery}},
					{"streamed x2 cached warm", event(),
						sim.Options{Source: src, Cache: cache, RetrainEvery: retrainEvery}},
				}
				for _, c := range cases {
					got, err := sim.Run(c.policy, train, simTr, c.opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(c.engine), ref, got)
				}
				if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 {
					t.Fatalf("%s: cached passes saw hits=%d misses=%d, want 2/2", label("cache"), st.Hits, st.Misses)
				}
			}
		}
	}
}

// TestDenseReferenceAtCIScale pins the event engine to the per-slot scan
// oracle on every workload the CI equivalence CLIs (cmd/eqvcheck,
// cmd/scenariobench -check) run, so their sharded, streamed and cached
// comparisons against the unsharded event engine stay anchored to
// Algorithm 1's literal form. Skipped under -short, like the 10k test.
func TestDenseReferenceAtCIScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CI-scale dense reference skipped with -short")
	}
	type workload struct {
		functions, days, trainDays int
		scenario                   string
		retrain                    int
		seeds                      []int64
	}
	cases := []workload{
		{400, 8, 6, "", 0, []int64{1, 2, 3}},
		{400, 8, 6, "", 1440, []int64{1}},
		{600, 8, 6, "drift", 1440, []int64{1, 2}},
		{600, 8, 6, "churn", 1440, []int64{1, 2}},
		{600, 8, 6, "drift", 0, []int64{1}},
		{600, 8, 6, "churn", 0, []int64{1}},
		{600, 8, 6, "steady", 0, []int64{1}},
		{300, 6, 4, "churn", 1440, []int64{1, 2}},
	}
	for _, w := range cases {
		for _, seed := range w.seeds {
			s := experiments.DefaultSettings()
			s.Functions, s.Days, s.TrainDays, s.Seed = w.functions, w.days, w.trainDays, seed
			if err := s.ApplyScenario(w.scenario); err != nil {
				t.Fatal(err)
			}
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%d fn %dd/%dd scenario=%q retrain=%d seed %d",
				w.functions, w.days, w.trainDays, w.scenario, w.retrain, seed)
			opts := sim.Options{RetrainEvery: w.retrain}
			ref, err := sim.Run(dense(), train, simTr, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ref.TotalColdStarts == 0 || ref.TotalWMT == 0 {
				t.Fatalf("%s: degenerate reference workload: %+v", label, ref)
			}
			got, err := sim.Run(event(), train, simTr, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, label, ref, got)
		}
	}
}
