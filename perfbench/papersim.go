package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/trace"
)

// settings is population j of a workload: the paper's §V-A steady split at
// the workload's scale, generated from popSeed(seed, j).
func settings(cfg config, j int) experiments.Settings {
	return experiments.Settings{
		Functions: cfg.Scale.Functions,
		Days:      cfg.Scale.Days,
		TrainDays: cfg.Scale.TrainDays,
		Seed:      popSeed(cfg.Seed, j),
		SPES:      core.DefaultConfig(),
	}
}

// generate builds a workload, timed and traced as trace.Generate, and
// returns its train/sim split.
func generate(tr *tracer, s experiments.Settings) (full, train, simTr *trace.Trace, took time.Duration, err error) {
	id := tr.open("trace.Generate", -1)
	t0 := time.Now()
	full, train, simTr, err = experiments.BuildWorkload(s)
	took = time.Since(t0)
	tr.close(id)
	return full, train, simTr, took, err
}

func newSPES() sim.Policy { return core.New(core.DefaultConfig()) }

// paperSim times sim.Run — unsharded SPES Train plus simulation — over the
// paper's 2000-function, 12+2-day steady workload. Set-up is generating the
// workload. A run serves Pops populations one after another, each for an
// equal share of the budget, and reports the median over them. The traced
// pass replaces each unit with its decomposition into the calls runOne
// makes (Train, BuildSlotIndex, Driver.Step per occupied slot, Close),
// alternated with untraced units to measure the overhead.
func paperSim(cfg config) (*report, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	rep := newReport(tr)
	sc := cfg.Scale
	pops := perPop{}
	budget := cfg.Budget / time.Duration(sc.Pops)
	var (
		gens, untraced []time.Duration
		units          []int
		outcome        *sim.Result
	)
	for j := range sc.Pops {
		_, train, simTr, gen, err := generate(tr, settings(cfg, j))
		if err != nil {
			return nil, err
		}
		gens = append(gens, gen)
		runOnce := func() (*sim.Result, error) {
			return sim.Run(newSPES(), fresh(train), fresh(simTr), sim.Options{})
		}
		// The first run warms the process and is the reference every later
		// output of the population must equal.
		ref, err := runOnce()
		if err != nil {
			return nil, err
		}
		if j == 0 {
			outcome = ref
		}
		want := ref
		if cfg.perturb {
			p := *ref
			p.TotalColdStarts++
			want = &p
		}
		checkUnit := func(what string, got *sim.Result) {
			rep.attempted++
			if err := sameResult(fmt.Sprintf("population %d: %s", j, what), want, got); err != nil {
				rep.failed++
				rep.check(err)
			}
		}

		// Sharded engine at one shard per core: a different execution of
		// the same simulation, so it must give the same Result.
		sharded, err := sim.Run(newSPES(), train, simTr, sim.Options{Shards: max(2, runtime.NumCPU())})
		if err != nil {
			return nil, err
		}
		rep.check(sameResult(fmt.Sprintf("population %d: sharded run", j), want, sharded))

		if cfg.Traced {
			_, err := repeatFor(budget, sc.MinUnits, func() error {
				t0 := time.Now()
				r, err := runOnce()
				untraced = append(untraced, time.Since(t0))
				if err != nil {
					return err
				}
				checkUnit("untraced run", r)

				u := tr.open("bench.unit", -1)
				run, err := driveSteps(tr, u, newSPES(), fresh(train), fresh(simTr), sim.DriverConfig{})
				if err != nil {
					return err
				}
				last := run.finish(tr, u, simTr.Slots)
				tr.close(u)
				units = append(units, u)
				checkUnit("traced decomposition", last)
				return nil
			}, 0, nil)
			if err != nil {
				return nil, err
			}
			continue
		}

		// Decision passes interleave with the timed units; each trains
		// outside the timing and steps the same occupied slots.
		var results []*sim.Result
		var decisions [][]time.Duration
		var peaks []float64
		times, err := repeatFor(budget, sc.MinUnits, func() error {
			h := sampleHeap()
			r, err := runOnce()
			peaks = append(peaks, h.finish())
			results = append(results, r)
			return err
		}, sc.DecidePasses, func() error {
			run, err := settledSteps(newSPES(), fresh(train), fresh(simTr))
			if err != nil {
				return err
			}
			rep.check(sameResult(fmt.Sprintf("population %d: driver decomposition", j), want, run.finish(nil, -1, simTr.Slots)))
			decisions = append(decisions, run.steps)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			checkUnit(fmt.Sprintf("timed run %d", i), r)
		}

		pops.add("run_s", medianSecs(times))
		pops.add("heap_peak_mb", median(peaks))
		pops.add("wmt_min", float64(ref.TotalWMT))
		stepCost(pops, decisions)
	}

	if cfg.Traced {
		rep.set("trace.generate_s", medianSecs(gens))
		rep.set("trace.slot_index_s", medianSecs(tr.perParent("trace.Trace.BuildSlotIndex", units)))
		rep.set("core.train_s", medianSecs(tr.perParent("core.SPES.Train", units)))
		setStepMetrics(rep, units)
		setOutcome(rep, outcome)
		setTraceCost(rep, units, untraced)
		return rep, nil
	}
	pops.report(rep)
	rep.set("setup_s", medianSecs(gens))
	okFrac(rep)
	return rep, nil
}

// settledSteps trains p, collects the garbage training left behind, then
// drives p over simTr with per-Step timing. Decision latency is a
// steady-state figure: without the collection, whether a concurrent GC
// cycle overlaps the stepping decides the percentiles more than the steps do.
func settledSteps(p sim.Policy, train, simTr *trace.Trace) (*stepRun, error) {
	p.Train(train)
	runtime.GC()
	return driveSteps(nil, -1, p, nil, simTr, sim.DriverConfig{})
}

// setTraceCost reports how many traced units ran, the share of their wall
// time their direct child spans cover, and their median wall time against
// the untraced units' median.
func setTraceCost(rep *report, units []int, untraced []time.Duration) {
	traced := make([]time.Duration, len(units))
	for i, u := range units {
		traced[i] = rep.tr.dur(u)
	}
	rep.set("bench.iterations", float64(len(units)))
	rep.set("bench.layer_cover_frac", rep.tr.coverage(units))
	rep.set("bench.trace_overhead_frac", medianSecs(traced)/medianSecs(untraced)-1)
}
