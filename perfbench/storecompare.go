package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baselines"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newPolicy builds the policy a key names. FaaSCache and LCS take pool, the
// warm-pool budget; the others ignore it.
func newPolicy(key string, pool int) sim.Policy {
	switch key {
	case "spes":
		return newSPES()
	case "fixed":
		return baselines.NewFixedKeepAlive(10)
	case "hf":
		return baselines.NewHybridFunction(baselines.DefaultHybridConfig())
	case "ha":
		return baselines.NewHybridApplication(baselines.DefaultHybridConfig())
	case "defuse":
		return baselines.NewDefuse(baselines.DefaultDefuseConfig())
	case "faascache":
		return baselines.NewFaaSCache(pool)
	case "lcs":
		return baselines.NewLCS(pool)
	}
	panic("perfbench: unknown policy key " + key)
}

// capacityPool is the warm-pool budget of FaaSCache and LCS: the most
// functions SPES kept loaded at once, as scenariobench budgets them.
func capacityPool(spes *sim.Result) int { return max(1, spes.MaxLoaded) }

// tracedSource times each Shard call of the store's source — read, verify,
// decode and split — under the span of the policy run asking for it.
type tracedSource struct {
	*trace.StoreSource
	tr     *tracer
	parent int // set between policy runs, never during one
}

func (s *tracedSource) Shard(i int) (train, simv *trace.ShardView, err error) {
	t0 := time.Now()
	train, simv, err = s.StoreSource.Shard(i)
	s.tr.add("trace.StoreSource.Shard", s.parent, t0, time.Now())
	return train, simv, err
}

// compareUnit opens the store and runs every policy through the streamed
// engine, SPES first. Spans go under parent when tr is non-nil.
func compareUnit(tr *tracer, parent int, dir string, trainSlots int) ([]*sim.Result, error) {
	id := tr.open("trace.OpenStore", parent)
	st, err := trace.OpenStore(dir)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	store, err := st.Source(trainSlots)
	if err != nil {
		return nil, err
	}
	var src sim.Source = store
	var ts *tracedSource
	if tr != nil {
		ts = &tracedSource{StoreSource: store, tr: tr}
		src = ts
	}
	results := make([]*sim.Result, 0, len(policyKeys))
	pool := 0
	for i, key := range policyKeys {
		if i > 0 {
			pool = capacityPool(results[0])
		}
		id := tr.open("sim.RunStreamed."+key, parent)
		if ts != nil {
			ts.parent = id
		}
		r, err := sim.RunStreamed(newPolicy(key, pool), src, sim.Options{})
		tr.close(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// compareReference runs every policy over the materialized train/sim pair
// with the unsharded engine.
func compareReference(train, simTr *trace.Trace) ([]*sim.Result, error) {
	base := make([]sim.Policy, 5)
	for i := range base {
		base[i] = newPolicy(policyKeys[i], 0)
	}
	results, err := sim.RunAll(base, train, simTr, sim.Options{})
	if err != nil {
		return nil, err
	}
	for _, key := range policyKeys[5:] {
		r, err := sim.Run(newPolicy(key, capacityPool(results[0])), train, simTr, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", key, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// writeCSV writes tr as an Azure-schema CSV at path.
func writeCSV(t *tracer, path string, tr *trace.Trace) error {
	id := t.open("trace.WriteCSV", -1)
	defer t.close(id)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteCSV(w, tr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ingest streams the CSV at path into a store of shards shards at dir.
func ingest(t *tracer, path, dir string, shards int) error {
	id := t.open("trace.IngestCSV", -1)
	defer t.close(id)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = trace.IngestCSV(bufio.NewReaderSize(f, 1<<20), dir, trace.IngestOptions{Shards: shards})
	return err
}

func dirMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n) / (1 << 20), nil
}

// shardDecisions drives a SPES instance over each stored shard with
// per-Step timing and returns, per simulation slot, the summed Step time of
// the shards that slot occupies: the time SPES takes to decide one slot for
// the whole population when reading it from the store (0 where no shard
// had an invocation).
func shardDecisions(tr *tracer, parent int, src *trace.StoreSource) ([]time.Duration, error) {
	perSlot := make([]time.Duration, src.Slots())
	for i := range src.NumShards() {
		train, sv, err := src.Shard(i)
		if err != nil {
			return nil, err
		}
		var run *stepRun
		if tr != nil {
			run, err = driveSteps(tr, parent, newSPES(), train.Trace, sv.Trace, sim.DriverConfig{})
		} else {
			run, err = settledSteps(newSPES(), train.Trace, sv.Trace)
		}
		if err != nil {
			return nil, err
		}
		run.finish(tr, parent, sv.Trace.Slots)
		for k, t := range run.slots {
			perSlot[t] += run.steps[k]
		}
	}
	return perSlot, nil
}

// storeCompare is the paper's policy comparison on a real-schema trace.
// Set-up generates a population, writes it as an Azure-schema CSV and
// ingests that into a sharded columnar store; a unit opens the store and
// streams all seven policies from it. Every unit's results must equal the
// materialized unsharded engine's over the generated trace. A run serves
// Pops populations one after another, each for an equal share of the
// budget, and reports the median over them.
func storeCompare(cfg config) (*report, error) {
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	rep := newReport(tr)
	sc := cfg.Scale
	csvPath := filepath.Join(cfg.Work, "trace.csv")
	dir := filepath.Join(cfg.Work, "store")
	trainSlots := sc.TrainDays * 1440
	budget := cfg.Budget / time.Duration(sc.Pops)
	pops := perPop{}
	var (
		setups, untraced []time.Duration
		units            []int
		ref0             []*sim.Result
	)
	for j := range sc.Pops {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		full, train, simTr, _, err := generate(tr, settings(cfg, j))
		if err != nil {
			return nil, err
		}
		if err := writeCSV(tr, csvPath, full); err != nil {
			return nil, err
		}
		if err := ingest(tr, csvPath, dir, sc.StoreShards); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		if err := os.Remove(csvPath); err != nil {
			return nil, err
		}

		// The reference also warms the process; the store's files are
		// still in the page cache from the ingest.
		ref, err := compareReference(train, simTr)
		if err != nil {
			return nil, err
		}
		if j == 0 {
			ref0 = ref
		}
		want := ref
		if cfg.perturb {
			want = append([]*sim.Result(nil), ref...)
			p := *ref[3]
			p.TotalWMT++
			want[3] = &p
		}
		checkUnit := func(what string, got []*sim.Result) {
			rep.attempted++
			bad := false
			for i := range want {
				if err := sameResult(fmt.Sprintf("population %d: %s", j, what), want[i], got[i]); err != nil {
					rep.check(err)
					bad = true
				}
			}
			if bad {
				rep.failed++
			}
		}

		if cfg.Traced {
			_, err := repeatFor(budget, sc.MinUnits, func() error {
				t0 := time.Now()
				r, err := compareUnit(nil, -1, dir, trainSlots)
				untraced = append(untraced, time.Since(t0))
				if err != nil {
					return err
				}
				checkUnit("untraced unit", r)

				u := tr.open("bench.unit", -1)
				r, err = compareUnit(tr, u, dir, trainSlots)
				tr.close(u)
				if err != nil {
					return err
				}
				units = append(units, u)
				checkUnit("traced unit", r)
				return nil
			}, 0, nil)
			if err != nil {
				return nil, err
			}
			if err := storeDecisionsTraced(tr, dir, trainSlots, sc.DecidePasses); err != nil {
				return nil, err
			}
			continue
		}

		st, err := trace.OpenStore(dir)
		if err != nil {
			return nil, err
		}
		src, err := st.Source(trainSlots)
		if err != nil {
			return nil, err
		}
		// Decision passes interleave with the timed units.
		var results [][]*sim.Result
		var decisions [][]time.Duration
		var peaks []float64
		times, err := repeatFor(budget, sc.MinUnits, func() error {
			h := sampleHeap()
			r, err := compareUnit(nil, -1, dir, trainSlots)
			peaks = append(peaks, h.finish())
			results = append(results, r)
			return err
		}, sc.DecidePasses, func() error {
			steps, err := shardDecisions(nil, -1, src)
			decisions = append(decisions, steps)
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			checkUnit(fmt.Sprintf("timed unit %d", i), r)
		}

		pops.add("run_s", medianSecs(times))
		pops.add("heap_peak_mb", median(peaks))
		pops.add("wmt_min", float64(ref[0].TotalWMT))
		stepCost(pops, decisions)
	}

	if cfg.Traced {
		return storeTraced(rep, dir, units, untraced, ref0)
	}
	pops.report(rep)
	rep.set("setup_s", medianSecs(setups))
	okFrac(rep)
	return rep, nil
}

// storeDecisionsTraced decodes the stored shards alone (Store.ShardTrace),
// passes times, to split decoding from splitting, then traces one SPES
// decision pass over the shards under a bench.decide span.
func storeDecisionsTraced(tr *tracer, dir string, trainSlots, passes int) error {
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	for range passes {
		for i := range st.NumShards() {
			t0 := time.Now()
			_, err := st.ShardTrace(i)
			tr.add("trace.Store.ShardTrace", -1, t0, time.Now())
			if err != nil {
				return err
			}
		}
	}
	src, err := st.Source(trainSlots)
	if err != nil {
		return err
	}
	d := tr.open("bench.decide", -1)
	defer tr.close(d)
	_, err = shardDecisions(tr, d, src)
	return err
}

// storeTraced reports store-compare's per-layer metrics from the spans of
// every population: the traced units, the shard decodes and the decision
// passes. The outcome metrics are population 0's.
func storeTraced(rep *report, dir string, units []int, untraced []time.Duration, ref []*sim.Result) (*report, error) {
	tr := rep.tr
	var decides []int
	for _, id := range tr.children(-1) {
		if tr.name(id) == "bench.decide" {
			decides = append(decides, id)
		}
	}
	mb, err := dirMB(dir)
	if err != nil {
		return nil, err
	}
	rep.set("trace.generate_s", medianSecs(tr.durations("trace.Generate")))
	rep.set("trace.csv_write_s", medianSecs(tr.durations("trace.WriteCSV")))
	rep.set("trace.ingest_s", medianSecs(tr.durations("trace.IngestCSV")))
	rep.set("trace.store_mb", mb)
	rep.set("trace.store_open_s", medianSecs(tr.perParent("trace.OpenStore", units)))

	// Shard spans sit under the policy spans of each unit.
	shardTotals := make([]time.Duration, len(units))
	for i, u := range units {
		for _, d := range tr.perParent("trace.StoreSource.Shard", tr.children(u)) {
			shardTotals[i] += d
		}
	}
	shards := tr.durations("trace.StoreSource.Shard")
	rep.set("trace.store_shard_s", medianSecs(shardTotals))
	rep.set("trace.store_shard_calls", float64(len(shards)/len(units)))
	rep.set("trace.store_shard_ms_p50", ms(quantile(shards, 0.5)))
	rep.set("trace.store_decode_ms_p50", ms(quantile(tr.durations("trace.Store.ShardTrace"), 0.5)))

	for _, key := range policyKeys {
		rep.set("sim.policy."+key+"_s", medianSecs(tr.durations("sim.RunStreamed."+key)))
	}
	for i, key := range policyKeys[1:] {
		rep.set("baselines."+key+".q3_csr", ref[i+1].QuantileCSR(0.75))
		rep.set("baselines."+key+".wmt_min", float64(ref[i+1].TotalWMT))
	}
	rep.set("core.train_s", medianSecs(tr.perParent("core.SPES.Train", decides)))
	rep.set("trace.slot_index_s", medianSecs(tr.perParent("trace.Trace.BuildSlotIndex", decides)))
	setStepMetrics(rep, decides)
	setOutcome(rep, ref[0])
	setTraceCost(rep, units, untraced)
	return rep, nil
}
