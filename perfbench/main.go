// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process and prints, as the last line of standard output, one
// JSON object: whether the outputs checked correct, how many units were
// attempted and failed, and the metrics with their units.
//
//	bash perfbench/run.sh --workload paper-sim --seed 7 --seconds 12 --trace 0
//
// Workloads (README.md explains why each exists and which layer it loads):
//
//	paper-sim       the paper's §V-A setup, one sim.Run per unit
//	store-compare   seven policies streamed from an ingested 8-shard store
//	serve-openloop  an in-process daemon fed one occupied slot per request
//
// --trace 0 reports the end-to-end metrics from untraced units; --trace 1
// runs a separate traced pass that times calls into each layer's public
// functions from this package and reports the per-layer metrics. Spans are
// kept in memory and written to .bench_build/spans/ when the run ends.
// Inputs come from --seed alone, so a seed always yields the same inputs.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// scale sizes a workload. fullScale is what the command runs; the tests run
// toyScale.
type scale struct {
	Functions, Days, TrainDays int
	Pops                       int     // populations served by paper-sim and store-compare
	ServePops                  int     // populations served by serve-openloop at least
	StoreShards                int     // store-compare ingest shards
	Rate                       float64 // serve-openloop requests per second
	RetrainEvery               int     // serve-openloop retrain period in slots
	MinUnits                   int     // timed units per population even past its budget
	DecidePasses               int     // untimed per-decision timing passes per population
}

var fullScale = scale{
	Functions: 2000, Days: 14, TrainDays: 12,
	Pops:         4,
	ServePops:    6,
	StoreShards:  8,
	Rate:         500,
	RetrainEvery: 1440,
	MinUnits:     2,
	DecidePasses: 3,
}

type config struct {
	Workload string
	Seed     int64
	Budget   time.Duration // how long the timed loop runs
	Traced   bool
	Work     string // scratch directory for generated files
	Scale    scale

	// perturb corrupts the reference each output check compares against, so
	// the tests can prove every check trips.
	perturb bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the command prints last.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(config) (*report, error){
	"paper-sim":      paperSim,
	"store-compare":  storeCompare,
	"serve-openloop": serveOpenloop,
}

func main() {
	workload := flag.String("workload", "", "paper-sim | store-compare | serve-openloop")
	seed := flag.Int64("seed", 1, "workload seed: the generator seed of every input")
	secs := flag.Int("seconds", 10, "how long the timed loop runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced units; 1: per-layer metrics from a traced pass")
	flag.Parse()

	if err := mainErr(*workload, *seed, *secs, *traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, secs, traced int) error {
	if _, ok := workloads[workload]; !ok {
		return fmt.Errorf("unknown --workload %q", workload)
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", secs)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traced)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(".bench_build", "work-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	cfg := config{
		Workload: workload,
		Seed:     seed,
		Budget:   time.Duration(secs) * time.Second,
		Traced:   traced == 1,
		Work:     work,
		Scale:    fullScale,
	}
	out, rep, err := run(cfg)
	if err != nil {
		return err
	}
	if rep.tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		if err := rep.tr.write(path); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.Join(rep.errs...)
	}
	return nil
}

// run executes one workload and assembles its result line: the end-to-end
// metrics untraced, the per-layer metrics traced. A per-layer metric the
// workload leaves unset reports 0 — its layer was idle there.
func run(cfg config) (*output, *report, error) {
	rep, err := workloads[cfg.Workload](cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer()
	}
	out := &output{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.Name]
		if !ok && !cfg.Traced {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s not measured", cfg.Workload, d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range rep.values {
		if _, ok := out.Metrics[name]; !ok {
			return nil, nil, fmt.Errorf("%s: metric %s is not declared", cfg.Workload, name)
		}
	}
	if out.Attempted < 1 {
		return nil, nil, fmt.Errorf("%s: no unit attempted", cfg.Workload)
	}
	return out, rep, nil
}
