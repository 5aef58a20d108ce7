// Command scenariobench compares provisioning policies across the
// non-stationary scenario library: for every scenario (steady, drift,
// flashcrowd, churn, deploy-wave) it simulates each policy over the same
// transformed workload and tabulates cold-start rate, wasted memory time,
// and memory residency — the conditions the paper's fixed
// 14-day-train/7-day-sim evaluation never exercises, and the first place
// SPES's online re-categorization (-retrain-every) can be measured against
// its stale-categorization self.
//
//	scenariobench                                  # library x policies, 2000 fns
//	scenariobench -scenarios drift,churn -functions 600 -shards 2 -check
//
// -check additionally asserts, per scenario, that the unsharded engine, the
// materialized sharded engine, and the streamed engine produce
// bit-identical SPES results (the eqvcheck guarantee, extended to scenario
// workloads), exiting non-zero on the first divergence. -stream
// runs every tabulated policy through the streamed engine (O(n/shards)
// residency) instead of materialized shards; results are identical either
// way.
//
// -store replaces the scenario library with a real trace: it prints the
// same policy table over a columnar shard store built by tracegen -ingest
// (or spes-sim -store -trace), streaming one verified shard file per
// worker and never opening the CSV. -train-days positions the split:
//
//	scenariobench -store ./azstore -train-days 3
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scenariobench:", err)
		os.Exit(1)
	}
}

func run() error {
	scenarios := flag.String("scenarios", "all", "comma-separated library scenarios to run, or 'all' ("+strings.Join(trace.ScenarioNames(), "|")+")")
	functions := flag.Int("functions", 2000, "workload: function count")
	days := flag.Int("days", 14, "workload: length in days")
	trainDays := flag.Int("train-days", 12, "workload: training days")
	seed := flag.Int64("seed", 1, "workload seed (also seeds scenario cohorts)")
	shards := flag.Int("shards", 4, "population shards per simulation")
	stream := flag.Bool("stream", false, "run the tabulated policies through the streamed engine (never materializes the trace pair)")
	retrainEvery := flag.Int("retrain-every", 1440, "the SPES+retrain row re-categorizes every this many slots (0 drops the row)")
	check := flag.Bool("check", false, "per scenario, assert unsharded == sharded == streamed SPES results bit-identically")
	storeDir := flag.String("store", "", "columnar shard store directory (tracegen -ingest): tabulate the policies over the stored real trace instead of the scenario library; -train-days positions the split")
	flag.Parse()

	if *storeDir != "" {
		// Store mode replaces the generated workload wholesale: the trace's
		// dimensions and shard count come from the store manifest, so every
		// generation knob is either meaningless or contradictory here.
		if *scenarios != "all" {
			return fmt.Errorf("-scenarios transforms the generated workload; it cannot be combined with -store")
		}
		if *stream {
			return fmt.Errorf("-store already streams shard files; -stream is implied")
		}
		if *check {
			return fmt.Errorf("-check needs the generated workload's unsharded reference; for store equivalence run eqvcheck -ingest")
		}
		if *trainDays <= 0 {
			return fmt.Errorf("-train-days must be positive, got %d", *trainDays)
		}
		if *retrainEvery < 0 {
			return fmt.Errorf("-retrain-every must be >= 0, got %d", *retrainEvery)
		}
		return runStore(*storeDir, *trainDays, *retrainEvery)
	}

	if *functions <= 0 {
		return fmt.Errorf("-functions must be positive, got %d", *functions)
	}
	if *days <= 0 {
		return fmt.Errorf("-days must be positive, got %d", *days)
	}
	if *trainDays <= 0 || *trainDays >= *days {
		return fmt.Errorf("-train-days %d outside (0, %d)", *trainDays, *days)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}
	if *retrainEvery < 0 {
		return fmt.Errorf("-retrain-every must be >= 0, got %d", *retrainEvery)
	}
	names := trace.ScenarioNames()
	if *scenarios != "all" {
		// Every name is validated before ANY scenario runs: a typo in the
		// second entry must not cost the first entry's full simulation, and
		// an empty element must not silently alias to steady.
		library := make(map[string]bool, len(names))
		for _, n := range names {
			library[n] = true
		}
		names = strings.Split(*scenarios, ",")
		for i := range names {
			names[i] = strings.TrimSpace(names[i])
			if !library[names[i]] {
				return fmt.Errorf("unknown scenario %q in -scenarios (have %s)", names[i], strings.Join(trace.ScenarioNames(), ", "))
			}
		}
	}

	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		if err := runScenario(name, *functions, *days, *trainDays,
			*seed, *shards, *retrainEvery, *stream, *check); err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
	}
	return nil
}

// runScenario simulates every policy over one scenario workload and prints
// the metric table.
func runScenario(name string, functions, days, trainDays int, seed int64, shards, retrainEvery int, stream, check bool) error {
	s := experiments.DefaultSettings()
	s.Functions = functions
	s.Days = days
	s.TrainDays = trainDays
	s.Seed = seed
	if err := s.ApplyScenario(name); err != nil {
		return err
	}

	// All tabulated policies run under Shards > 1 — the per-function ones as
	// independent shard instances, the capacity-coupled ones (FaaSCache,
	// LCS, added below) through the lockstep arbitration engine — so one
	// workload serves both the materialized and the streamed engine.
	opts := sim.Options{Shards: shards}
	var train, simTr *trace.Trace
	if stream {
		src, err := experiments.StreamSource(s, shards)
		if err != nil {
			return err
		}
		opts = sim.Options{Source: src}
	}
	if !stream || check {
		var err error
		_, train, simTr, err = experiments.BuildWorkload(s)
		if err != nil {
			return err
		}
	}

	results, err := sim.RunAll(basePolicies(), train, simTr, opts)
	if err != nil {
		return err
	}
	labels := make([]string, len(results))
	for i, r := range results {
		labels[i] = r.Policy
	}
	if retrainEvery > 0 {
		ro := opts
		ro.RetrainEvery = retrainEvery
		rr, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, ro)
		if err != nil {
			return err
		}
		results = append(results, rr)
		labels = append(labels, fmt.Sprintf("SPES+retrain/%d", retrainEvery))
	}

	// The capacity-coupled baselines ride after the main rows: their warm
	// pool budget is the SPES row's MaxLoaded (the memory SPES actually
	// used, the convention of internal/experiments), which is only known
	// once the SPES row has run.
	pool := results[0].MaxLoaded
	if pool < 1 {
		pool = 1
	}
	for _, p := range []sim.Policy{baselines.NewFaaSCache(pool), baselines.NewLCS(pool)} {
		r, err := sim.Run(p, train, simTr, opts)
		if err != nil {
			return err
		}
		results = append(results, r)
		labels = append(labels, fmt.Sprintf("%s/cap=%d", r.Policy, pool))
	}

	fmt.Printf("scenario: %s | %d functions | %d train + %d sim days | seed %d\n",
		name, functions, trainDays, days-trainDays, seed)
	renderPolicyTable(labels, results)

	if check {
		if err := checkEngines(s, train, simTr, shards); err != nil {
			return err
		}
		fmt.Printf("engines agree: unsharded == sharded x%d == streamed x%d (SPES, bit-identical)\n", shards, shards)
	}
	return nil
}

// basePolicies is the per-function policy row set shared by the scenario
// and store tables; the capacity-coupled baselines (FaaSCache, LCS) ride
// after them because their budget is the SPES row's MaxLoaded.
func basePolicies() []sim.Policy {
	return []sim.Policy{
		core.New(core.DefaultConfig()),
		baselines.NewFixedKeepAlive(10),
		baselines.NewHybridFunction(baselines.DefaultHybridConfig()),
		baselines.NewHybridApplication(baselines.DefaultHybridConfig()),
		baselines.NewDefuse(baselines.DefaultDefuseConfig()),
	}
}

// renderPolicyTable prints the shared metric table, one labeled row per
// result.
func renderPolicyTable(labels []string, results []*sim.Result) {
	tab := report.NewTable("Policy", "ColdStarts", "CSR", "Q3-CSR", "WMT(min)", "MeanLoaded", "PeakLoaded")
	for i, r := range results {
		tab.AddRow(labels[i],
			fmt.Sprint(r.TotalColdStarts),
			fmt.Sprintf("%.4f", r.GlobalCSR()),
			fmt.Sprintf("%.4f", r.QuantileCSR(0.75)),
			fmt.Sprint(r.TotalWMT),
			fmt.Sprintf("%.1f", r.MeanLoaded()),
			fmt.Sprint(r.MaxLoaded))
	}
	tab.Render(os.Stdout)
}

// runStore simulates every policy over a columnar shard store's real trace
// (one verified shard file per worker; the originating CSV is never opened)
// and prints the same table the scenario mode does. The capacity-coupled
// baselines are budgeted at the SPES row's MaxLoaded — the memory SPES
// actually used, the convention of internal/experiments.
func runStore(dir string, trainDays, retrainEvery int) error {
	st, err := trace.OpenStore(dir)
	if err != nil {
		return fmt.Errorf("opening store: %w (build it with tracegen -ingest)", err)
	}
	splitAt := trainDays * 1440
	if splitAt >= st.Slots() {
		return fmt.Errorf("-train-days %d out of range for a %d-slot store", trainDays, st.Slots())
	}
	src, err := st.Source(splitAt)
	if err != nil {
		return err
	}
	opts := sim.Options{Source: src}

	results, err := sim.RunAll(basePolicies(), nil, nil, opts)
	if err != nil {
		return err
	}
	labels := make([]string, len(results))
	for i, r := range results {
		labels[i] = r.Policy
	}
	if retrainEvery > 0 {
		ro := opts
		ro.RetrainEvery = retrainEvery
		rr, err := sim.Run(core.New(core.DefaultConfig()), nil, nil, ro)
		if err != nil {
			return err
		}
		results = append(results, rr)
		labels = append(labels, fmt.Sprintf("SPES+retrain/%d", retrainEvery))
	}

	pool := results[0].MaxLoaded
	if pool < 1 {
		pool = 1
	}
	for _, p := range []sim.Policy{baselines.NewFaaSCache(pool), baselines.NewLCS(pool)} {
		r, err := sim.Run(p, nil, nil, opts)
		if err != nil {
			return err
		}
		results = append(results, r)
		labels = append(labels, fmt.Sprintf("%s/cap=%d", r.Policy, pool))
	}

	fmt.Printf("store: %s | %d functions | %d shards | %d train + %d sim minutes\n",
		dir, st.NumFunctions(), st.NumShards(), splitAt, st.Slots()-splitAt)
	renderPolicyTable(labels, results)
	return nil
}

// checkEngines asserts the unsharded engine, the materialized sharded
// engine, and the streamed engine produce bit-identical SPES results over
// the scenario workload.
func checkEngines(s experiments.Settings, train, simTr *trace.Trace, shards int) error {
	ref, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{})
	if err != nil {
		return err
	}
	sharded, err := sim.Run(core.New(core.DefaultConfig()), train, simTr, sim.Options{Shards: shards})
	if err != nil {
		return err
	}
	src, err := experiments.StreamSource(s, shards)
	if err != nil {
		return err
	}
	streamed, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{})
	if err != nil {
		return err
	}
	for _, c := range []struct {
		engine string
		got    *sim.Result
	}{{"sharded", sharded}, {"streamed", streamed}} {
		w, g := *ref, *c.got
		w.Overhead, g.Overhead = 0, 0
		if !reflect.DeepEqual(&w, &g) {
			return fmt.Errorf("%s engine diverged from the unsharded reference (cold %d/%d wmt %d/%d)",
				c.engine, g.TotalColdStarts, w.TotalColdStarts, g.TotalWMT, w.TotalWMT)
		}
	}
	return nil
}
