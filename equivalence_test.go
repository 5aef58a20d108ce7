// Equivalence tests: sharded, streamed, parallel and cached runs, and the
// incremental (load/unload-delta) simulation accounting, must reproduce
// their unsharded and per-slot-scan counterparts bit for bit. Every
// sim.Result field — cold starts, WMT, EMCR, memory, per-function metrics,
// type labels — is compared on seeded generator workloads. The scheduling
// engines' own oracles live with their packages (internal/core and
// internal/baselines equivalence_test.go).
package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// scanOnly hides a policy's LoadDeltaTracker so sim.Run falls back to the
// dense per-slot accounting scan; it is the reference the delta-accounting
// path is verified against.
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
	for fid := range w.Types {
		if w.Types[fid] != g.Types[fid] {
			t.Errorf("%s: f%d type want=%s got=%s", label, fid, w.Types[fid], g.Types[fid])
			return
		}
	}
}

// TestShardedBaselineEquivalence runs every baseline under Options.Shards
// and requires the merged result to match its unsharded run — including the
// capacity-coupled policies (FaaSCache, LCS), which used to refuse sharding
// and now run under the capacity-arbitrated engine.
func TestShardedBaselineEquivalence(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(5))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) },
		func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
		func() sim.Policy { return baselines.NewFaaSCache(30) },
		func() sim.Policy { return baselines.NewLCS(30) },
	}
	for _, mk := range mks {
		ref, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4} {
			got, err := sim.Run(mk(), train, simTr, sim.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, fmt.Sprintf("%s x%d", ref.Policy, shards), ref, got)
		}
	}
}

// TestCapacityShardedEquivalence is the dedicated matrix for the capacity-
// arbitrated engine: FaaSCache and LCS across shard counts {2, 5, 16},
// scenarios {steady, drift, flashcrowd}, and three seeds must merge to
// Results bit-identical to their unsharded runs — which are themselves
// pinned to the dense accounting scan — and the streamed engine must agree
// too (capacity sources materialize all shards up front, but the entry
// point still has to work).
func TestCapacityShardedEquivalence(t *testing.T) {
	mks := []func(capacity int) sim.Policy{
		func(capacity int) sim.Policy { return baselines.NewFaaSCache(capacity) },
		func(capacity int) sim.Policy { return baselines.NewLCS(capacity) },
	}
	for _, scenario := range []string{"steady", "drift", "flashcrowd"} {
		for seed := int64(1); seed <= 3; seed++ {
			s := eqvSettings(seed)
			if err := s.ApplyScenario(scenario); err != nil {
				t.Fatal(err)
			}
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				t.Fatal(err)
			}
			src, err := experiments.StreamSource(s, 5)
			if err != nil {
				t.Fatal(err)
			}
			// A third of the population: small enough that evictions are
			// constant, large enough that loaded functions also idle (so the
			// WMT/EMCR paths are non-degenerate, which the guard asserts).
			capacity := train.NumFunctions() / 3
			for _, mk := range mks {
				label := func(engine string) string {
					return fmt.Sprintf("%s %s seed %d: %s", mk(capacity).Name(), scenario, seed, engine)
				}
				dense, err := sim.Run(scanOnly{mk(capacity)}, train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if dense.TotalColdStarts == 0 || dense.TotalWMT == 0 {
					t.Fatalf("%s: degenerate workload: %+v", label("dense"), dense)
				}
				ref, err := sim.Run(mk(capacity), train, simTr, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, label("unsharded vs dense"), dense, ref)
				for _, shards := range []int{2, 5, 16} {
					got, err := sim.Run(mk(capacity), train, simTr, sim.Options{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					assertSameResult(t, label(fmt.Sprintf("sharded x%d", shards)), ref, got)
				}
				streamed, err := sim.RunStreamed(mk(capacity), src, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, label("streamed x5"), ref, streamed)
			}
		}
	}
}

// TestCapacityShardingContracts pins the error contracts around the
// capacity engine: a policy implementing neither sharding interface refuses
// with sim.ErrNotShardable (surviving RunAll's per-policy wrapping, whose
// other results stay usable), and a ShardCache attached to a capacity run
// is refused with a structured CapacityCacheError rather than silently
// bypassed.
func TestCapacityShardingContracts(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(3))
	if err != nil {
		t.Fatal(err)
	}

	// scanOnly hides every optional interface, including ShardedPolicy.
	_, err = sim.Run(scanOnly{baselines.NewFixedKeepAlive(10)}, train, simTr, sim.Options{Shards: 2})
	if !errors.Is(err, sim.ErrNotShardable) {
		t.Errorf("unshardable policy: got %v, want errors.Is ErrNotShardable", err)
	}

	results, err := sim.RunAll(
		[]sim.Policy{scanOnly{baselines.NewFixedKeepAlive(10)}, baselines.NewFixedKeepAlive(10)},
		train, simTr, sim.Options{Shards: 2})
	if !errors.Is(err, sim.ErrNotShardable) {
		t.Errorf("RunAll: got %v, want errors.Is ErrNotShardable", err)
	}
	if results[0] != nil || results[1] == nil {
		t.Errorf("RunAll partial results: got [%v, %v], want [nil, result]", results[0], results[1])
	}

	_, err = sim.Run(baselines.NewFaaSCache(30), train, simTr,
		sim.Options{Shards: 2, Cache: sim.NewShardCache()})
	if !errors.Is(err, sim.ErrCapacityCoupled) {
		t.Errorf("cached capacity run: got %v, want errors.Is ErrCapacityCoupled", err)
	}
	var cce *sim.CapacityCacheError
	if !errors.As(err, &cce) || cce.Policy != "FaaSCache" {
		t.Errorf("cached capacity run: got %v, want CapacityCacheError for FaaSCache", err)
	}
}

// TestShardedRunAllSharesBudget smoke-tests the policies x shards worker
// budget: several sharded policies under one RunAll with Workers=2 must
// still produce in-order, bit-correct results.
func TestShardedRunAllSharesBudget(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(9))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return core.New(core.DefaultConfig()) },
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
	}
	var want []*sim.Result
	var pack []sim.Policy
	for _, mk := range mks {
		r, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
		pack = append(pack, mk())
	}
	got, err := sim.RunAll(pack, train, simTr, sim.Options{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		assertSameResult(t, want[i].Policy+" sharded RunAll", want[i], got[i])
	}
}

// TestBaselineDeltaAccountingEquivalence verifies that every baseline's
// delta log drives the incremental accounting to the exact result of the
// dense scan.
func TestBaselineDeltaAccountingEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		_, train, simTr, err := experiments.BuildWorkload(eqvSettings(seed))
		if err != nil {
			t.Fatal(err)
		}
		capacity := train.NumFunctions() / 10
		mks := []func() sim.Policy{
			func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
			func() sim.Policy { return baselines.NewHybridFunction(baselines.DefaultHybridConfig()) },
			func() sim.Policy { return baselines.NewHybridApplication(baselines.DefaultHybridConfig()) },
			func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
			func() sim.Policy { return baselines.NewFaaSCache(capacity) },
			func() sim.Policy { return baselines.NewLCS(capacity) },
		}
		for _, mk := range mks {
			ref, err := sim.Run(scanOnly{mk()}, train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(mk(), train, simTr, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, got.Policy, ref, got)
		}
	}
}

// TestRunAllParallelMatchesSequential pins RunAll's concurrent execution to
// the per-policy sequential results, in input order.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	_, train, simTr, err := experiments.BuildWorkload(eqvSettings(7))
	if err != nil {
		t.Fatal(err)
	}
	mks := []func() sim.Policy{
		func() sim.Policy { return core.New(core.DefaultConfig()) },
		func() sim.Policy { return baselines.NewFixedKeepAlive(10) },
		func() sim.Policy { return baselines.NewDefuse(baselines.DefaultDefuseConfig()) },
		func() sim.Policy { return baselines.NewLCS(train.NumFunctions() / 10) },
	}
	var seq []*sim.Result
	var par []sim.Policy
	for _, mk := range mks {
		r, err := sim.Run(mk(), train, simTr, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, r)
		par = append(par, mk())
	}
	got, err := sim.RunAll(par, train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(seq) {
		t.Fatalf("RunAll returned %d results, want %d", len(got), len(seq))
	}
	for i := range seq {
		assertSameResult(t, seq[i].Policy, seq[i], got[i])
	}
}

// TestRetrainChangesOutcomeUnderChurn is the sanity check that retraining
// is not a no-op: under the churn scenario, periodic re-categorization must
// actually change the simulation outcome (it demotes retired functions and
// picks up born ones).
func TestRetrainChangesOutcomeUnderChurn(t *testing.T) {
	s := eqvSettings(1)
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	retrained, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
		sim.Options{RetrainEvery: 720})
	if err != nil {
		t.Fatal(err)
	}
	if plain.TotalColdStarts == retrained.TotalColdStarts && plain.TotalWMT == retrained.TotalWMT {
		t.Fatalf("retraining changed nothing under churn: cold=%d wmt=%d",
			plain.TotalColdStarts, plain.TotalWMT)
	}
}

// TestRetrainCacheKeySeparation proves the cache-key rule for online
// re-categorization: retrain-enabled and plain runs of the same policy over
// the same shards must never share entries — in memory or on disk — while
// each reproduces its own cold results bit-for-bit from a warm (and a
// restarted) cache.
func TestRetrainCacheKeySeparation(t *testing.T) {
	s := eqvSettings(1)
	if err := s.ApplyScenario("churn"); err != nil {
		t.Fatal(err)
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := sim.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewShardCache()
	cache.AttachDisk(disk)
	const shards = 3

	run := func(c *sim.ShardCache, retrain int) *sim.Result {
		t.Helper()
		r, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
			sim.Options{Shards: shards, Cache: c, RetrainEvery: retrain})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	plain := run(cache, 0)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != shards {
		t.Fatalf("plain cold pass: stats %+v, want %d misses", st, shards)
	}
	retrained := run(cache, 1440)
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2*shards {
		t.Fatalf("retrain pass hit plain entries: stats %+v, want %d misses and no hits", st, 2*shards)
	}
	if plain.TotalColdStarts == retrained.TotalColdStarts && plain.TotalWMT == retrained.TotalWMT {
		t.Fatal("retrain-enabled run reproduced the plain run; key separation untestable")
	}

	warm := run(cache, 1440)
	assertSameResult(t, "warm retrain replay", retrained, warm)
	if st := cache.Stats(); st.Hits != shards || st.DiskHits != 0 {
		t.Fatalf("warm retrain pass: stats %+v, want %d in-memory hits", st, shards)
	}

	// A restarted process (fresh in-memory cache, same entry directory)
	// must restore each mode's own entries from disk.
	for _, c := range []struct {
		retrain int
		want    *sim.Result
	}{{1440, retrained}, {0, plain}} {
		restarted := sim.NewShardCache()
		restarted.AttachDisk(disk)
		got := run(restarted, c.retrain)
		assertSameResult(t, fmt.Sprintf("restart replay retrain=%d", c.retrain), c.want, got)
		if st := restarted.Stats(); st.DiskHits != shards {
			t.Fatalf("restart retrain=%d: stats %+v, want %d disk hits", c.retrain, st, shards)
		}
	}
}

// TestSteadyScenarioSharesCacheKeys asserts the steady library scenario is
// cache-key-compatible with never applying a scenario at all: the
// generator-source shard fingerprints (a cache-key component) must match,
// so stationary sweeps keep hitting pre-scenario disk entries, while a
// phased scenario must fingerprint apart.
func TestSteadyScenarioSharesCacheKeys(t *testing.T) {
	plain, err := experiments.StreamSource(eqvSettings(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	steadyS := eqvSettings(1)
	if err := steadyS.ApplyScenario("steady"); err != nil {
		t.Fatal(err)
	}
	steady, err := experiments.StreamSource(steadyS, 2)
	if err != nil {
		t.Fatal(err)
	}
	driftS := eqvSettings(1)
	if err := driftS.ApplyScenario("drift"); err != nil {
		t.Fatal(err)
	}
	drift, err := experiments.StreamSource(driftS, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		pf, _ := plain.ShardFingerprint(i)
		sf, _ := steady.ShardFingerprint(i)
		df, _ := drift.ShardFingerprint(i)
		if pf != sf {
			t.Errorf("shard %d: steady fingerprint %x != plain %x (stationary cache keys split)", i, sf, pf)
		}
		if df == pf {
			t.Errorf("shard %d: drift fingerprint collides with plain", i)
		}
	}
}
