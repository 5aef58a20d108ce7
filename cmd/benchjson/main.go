// Command benchjson runs the repository's scheduler benchmarks and writes a
// machine-readable snapshot (BENCH_<n>.json), seeding the performance
// trajectory PRs compare against. By default it runs the per-Tick Overhead
// benchmarks of every policy plus the end-to-end SPES simulation:
//
//	go run ./cmd/benchjson                  # writes BENCH_1.json
//	go run ./cmd/benchjson -out BENCH_2.json -benchtime 3s
//
// -sweep additionally runs an in-process full-simulation scale sweep over
// comma-separated population sizes (sparse traffic, per shard count), the
// regime where the sharded engine's near-linear core scaling shows. Every
// sweep point samples the process heap (runtime.MemStats.HeapInuse, ~2ms
// cadence) so the materialized-vs-streamed residency gap is recorded next
// to the wall clock; a point runs heapPasses times and records the median
// peak, since one sample swings with GC timing (wall times and results come
// from the first pass). Shard counts > 1 run twice, once over materialized
// traces and once streamed through sim.GeneratorSource, and each point
// regenerates its own workload so generation residency is attributed to
// the mode that pays it. -sweepCapacity extends the sweep with the
// capacity-coupled baselines (FaaSCache, LCS) at every scale and shard
// count — sharded through the lockstep arbitration engine, budgeted at the
// scale's SPES MaxLoaded, and checked bit-identical across shard counts.
//
// -cacheSweep runs a Figure-13a-style 5-point theta_prewarm sweep twice
// through one sim.ShardCache — cold, then warm — recording both wall
// times, the cache traffic, and a per-point equivalence check. -cacheDir
// backs that cache with an on-disk entry directory: the sweep then runs
// streamed and adds a warm-after-restart pass through a fresh in-memory
// cache over the same directory, recording what a sweep costs a restarted
// process (every shard outcome must restore from disk).
//
// -ingest runs the real-trace ingestion benchmark: an Azure-format CSV is
// streamed into a temp columnar shard store (cold — external partition,
// columnar encode, CRC), the store is reopened from its manifest (warm —
// the CSV is never parsed again), and the full policy table is simulated
// straight from the store's verified shard files, with the
// capacity-coupled baselines budgeted at the SPES row's MaxLoaded.
//
// -serve runs the serving-mode benchmark: an in-process spes-serve daemon
// (internal/serve, journal + snapshots in a temp dir) ingests a flash-crowd
// replay over real HTTP, once nominally and once with the decision deadline
// forced to ~0 so every decision sheds to the fixed-keepalive fallback. It
// records decision-latency percentiles, events/sec, and the shed counters,
// and fails unless both passes land on the same policy state hash — the
// "sheds decisions, never state" invariant measured rather than assumed.
//
//	go run ./cmd/benchjson -out BENCH_4.json -sweep 600,10000,100000 \
//	    -sweepShards 1,16 -cacheSweep 600,10000 -cacheShards 8 \
//	    -cacheDir /tmp/shardcache
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/memwatch"
	"repro/internal/retry"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Benchmark is one parsed `go test -bench` result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the file format of BENCH_<n>.json.
type Snapshot struct {
	Generated  time.Time          `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	CPU        string             `json:"cpu,omitempty"`
	MaxProcs   int                `json:"maxprocs,omitempty"`
	Bench      string             `json:"bench_regex"`
	Benchtime  string             `json:"benchtime"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Sweep      []SweepPoint       `json:"scale_sweep,omitempty"`
	CacheSweep []CacheSweepResult `json:"sweep_cache,omitempty"`
	Serve      []ServeResult      `json:"serve,omitempty"`
	Ingest     *IngestResult      `json:"ingest,omitempty"`
}

// IngestResult records the real-trace ingestion benchmark: one Azure-format
// CSV streamed into a fresh columnar shard store (cold — external partition
// plus columnar encode plus CRC), the store reopened from its manifest
// (warm — the CSV is never parsed again; WarmOpenMs/ColdIngestMs is the
// parse-skip win every later simulation of the same trace collects), and
// the policy table simulated straight from the store's verified shard
// files. The capacity-coupled rows (FaaSCache, LCS) are budgeted at the
// SPES row's MaxLoaded, the comparison convention of internal/experiments.
type IngestResult struct {
	CSV          string            `json:"csv"`
	Functions    int               `json:"functions"`
	Shards       int               `json:"shards"`
	Slots        int               `json:"slots"`
	TrainDays    int               `json:"train_days"`
	Events       int64             `json:"events"`
	SpillRuns    int               `json:"spill_runs"`
	StoreBytes   int64             `json:"store_bytes"`
	ColdIngestMs float64           `json:"cold_ingest_ms"`
	WarmOpenMs   float64           `json:"warm_open_ms"`
	Policies     []IngestPolicyRow `json:"policies"`
}

// IngestPolicyRow is one policy simulated over the stored real trace
// (sim.RunStreamed over trace.StoreSource: one verified shard file per
// worker, O(n/shards) residency).
type IngestPolicyRow struct {
	Policy     string  `json:"policy"`
	Capacity   int     `json:"capacity,omitempty"`
	SimMs      float64 `json:"sim_ms"`
	ColdStarts int64   `json:"cold_starts"`
	WMT        int64   `json:"wmt"`
	MaxLoaded  int     `json:"max_loaded"`
}

// runIngestBench measures the columnar shard store end to end over a real
// (or tracegen-written) Azure-format CSV: cold ingest into a temp store,
// warm reopen, then the policy table streamed from the store.
func runIngestBench(csvPath string, shards, trainDays int) (*IngestResult, error) {
	dir, err := os.MkdirTemp("", "benchingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	f, err := os.Open(csvPath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchjson: ingest %s cold (%d shards)...\n", csvPath, shards)
	coldStart := time.Now()
	_, stats, err := trace.IngestCSV(f, dir, trace.IngestOptions{Shards: shards})
	coldMs := msSince(coldStart)
	f.Close()
	if err != nil {
		return nil, err
	}

	warmStart := time.Now()
	st, err := trace.OpenStore(dir)
	warmMs := msSince(warmStart)
	if err != nil {
		return nil, err
	}
	splitAt := trainDays * 1440
	if splitAt <= 0 || splitAt >= st.Slots() {
		return nil, fmt.Errorf("-ingestTrainDays %d out of range for a %d-slot trace", trainDays, st.Slots())
	}
	src, err := st.Source(splitAt)
	if err != nil {
		return nil, err
	}

	r := &IngestResult{
		CSV: filepath.Base(csvPath), Functions: stats.Functions, Shards: stats.Shards,
		Slots: stats.Slots, TrainDays: trainDays, Events: stats.Events,
		SpillRuns: stats.SpillRuns, StoreBytes: stats.StoreBytes,
		ColdIngestMs: coldMs, WarmOpenMs: warmMs,
	}
	row := func(p sim.Policy, capacity int) (*sim.Result, error) {
		fmt.Fprintf(os.Stderr, "benchjson: ingest policy %s...\n", p.Name())
		start := time.Now()
		res, err := sim.RunStreamed(p, src, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("policy %s over the store: %w", p.Name(), err)
		}
		r.Policies = append(r.Policies, IngestPolicyRow{
			Policy: res.Policy, Capacity: capacity, SimMs: msSince(start),
			ColdStarts: res.TotalColdStarts, WMT: res.TotalWMT, MaxLoaded: res.MaxLoaded,
		})
		return res, nil
	}
	spes, err := row(core.New(core.DefaultConfig()), 0)
	if err != nil {
		return nil, err
	}
	for _, p := range []sim.Policy{
		baselines.NewFixedKeepAlive(10),
		baselines.NewHybridFunction(baselines.DefaultHybridConfig()),
		baselines.NewHybridApplication(baselines.DefaultHybridConfig()),
		baselines.NewDefuse(baselines.DefaultDefuseConfig()),
	} {
		if _, err := row(p, 0); err != nil {
			return nil, err
		}
	}
	pool := spes.MaxLoaded
	if pool < 1 {
		pool = 1
	}
	for _, p := range []sim.Policy{baselines.NewFaaSCache(pool), baselines.NewLCS(pool)} {
		if _, err := row(p, pool); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// SweepPoint is one full-simulation measurement of the scale sweep: SPES
// trained and simulated end to end over a sparse synthetic population of
// the given size, with the given shard count (1 = the classic unsharded
// engine). Mode distinguishes the materialized engine (workload generated
// and split up front) from the streamed one (sim.GeneratorSource produces
// each shard inside its worker; the trace pair never exists in full). The
// result fields are recorded so the sweep doubles as an equivalence check —
// every mode and shard count at the same scale must report the same cold
// starts and WMT. Heap figures are HeapInuse sampled during the point
// (peak: the median over heapPasses passes, except the single-pass mega
// point) and after a post-run GC (live, first pass). Single-core caveat: with
// maxprocs=1 the shard runs serialize, so shards>1 shows the sharding
// overhead floor rather than a speedup; the near-linear scaling claim
// needs maxprocs >= shards.
type SweepPoint struct {
	Functions int    `json:"functions"`
	Days      int    `json:"days"`
	TrainDays int    `json:"train_days"`
	Seed      int64  `json:"seed"`
	Shards    int    `json:"shards"`
	Mode      string `json:"mode"`
	// Policy distinguishes -sweepCapacity rows (FaaSCache, LCS — the
	// capacity-coupled baselines, sharded through the lockstep arbitration
	// engine) from the default SPES rows, which leave it empty so legacy
	// baselines keep decoding and matching unchanged. Capacity records the
	// global warm-pool budget those rows ran with: the same-scale SPES
	// point's MaxLoaded, the convention of internal/experiments.
	Policy         string  `json:"policy,omitempty"`
	Capacity       int     `json:"capacity,omitempty"`
	Scenario       string  `json:"scenario,omitempty"`    // library scenario ("" = stationary sparse)
	GenerateMs     float64 `json:"generate_ms,omitempty"` // materialized only; streamed generates inside FullSimMs
	FullSimMs      float64 `json:"full_sim_ms"`           // train + simulate (streamed: + generation), wall clock
	HeapPeakBytes  uint64  `json:"heap_peak_bytes"`
	HeapAfterBytes uint64  `json:"heap_after_gc_bytes"`
	ColdStarts     int64   `json:"cold_starts"`
	WMT            int64   `json:"wmt"`
	MaxLoaded      int     `json:"max_loaded"`
}

// CacheSweepResult records one cold-vs-warm comparison of the incremental
// sweep cache: the same 5-point theta_prewarm sweep run repeatedly through
// one sim.ShardCache over one workload. The warm pass re-runs nothing —
// every (policy config, shard) key was seen by the cold pass — so
// WarmMs/ColdMs is the sweep-cache win; ResultsMatch asserts the warm
// results were bit-identical to the cold ones.
//
// With -cacheDir the sweep instead runs streamed with a disk-backed cache
// (Mode "streamed+disk"): a third, restart-simulating pass runs through a
// FRESH in-memory cache over the same entry directory — every shard
// outcome must be restored from disk (DiskHits), never re-simulated — and
// WarmRestartMs records what a sweep costs a restarted process.
type CacheSweepResult struct {
	Functions     int     `json:"functions"`
	Days          int     `json:"days"`
	TrainDays     int     `json:"train_days"`
	Seed          int64   `json:"seed"`
	Shards        int     `json:"shards"`
	Points        int     `json:"points"`
	Mode          string  `json:"mode"`
	ColdMs        float64 `json:"cold_ms"`
	WarmMs        float64 `json:"warm_ms"`
	WarmRestartMs float64 `json:"warm_restart_ms,omitempty"`
	Hits          int64   `json:"cache_hits"`
	Misses        int64   `json:"cache_misses"`
	ColdDiskHits  int64   `json:"cold_disk_hits,omitempty"` // non-zero: -cacheDir was pre-populated (say, by a killed run this one resumed) and cold_ms is disk-warm, not cold
	DiskHits      int64   `json:"disk_hits,omitempty"`
	ResultsMatch  bool    `json:"results_match"`

	// ResultsHash fingerprints the sweep's results (FNV-64a over every
	// Result with the wall-clock Overhead zeroed): two benchjson runs of the
	// same sweep — clean, fault-injected, or killed-and-resumed — must
	// report the same hash. The faultsmoke CI job compares these across
	// processes, the cross-run half of the completes ⇒ bit-identical
	// invariant.
	ResultsHash string `json:"results_hash,omitempty"`
	// FaultSeed / FaultsInjected record the -faults schedule this sweep ran
	// under (0 / absent: clean run).
	FaultSeed      int64 `json:"fault_seed,omitempty"`
	FaultsInjected int64 `json:"faults_injected,omitempty"`
}

// ServeResult is one serving-mode measurement: an in-process spes-serve
// daemon (internal/serve, write-ahead journal + checksummed snapshots in a
// temp dir) ingesting a flash-crowd trace replay over real HTTP, one batch
// request per few occupied slots, unpaced — the client sends as fast as the
// daemon acknowledges, so the burst slots arrive back to back. Latency
// percentiles are per-request decision latency as the client experiences it
// (including retries); shed counters come from the daemon's own metrics.
// Mode "nominal" runs the default deadlines; mode "overload" forces the
// decision deadline to ~0 so every decision sheds to the documented
// fixed-keepalive fallback — its throughput is the shed path's, and its
// state hash must equal the nominal run's (the daemon sheds decisions,
// never state; runServeBench fails otherwise).
type ServeResult struct {
	Functions int    `json:"functions"`
	Days      int    `json:"days"`
	TrainDays int    `json:"train_days"`
	Seed      int64  `json:"seed"`
	Scenario  string `json:"scenario"`
	Mode      string `json:"mode"` // "nominal" | "overload"

	Slots    int64 `json:"slots"`    // occupied slots ingested
	Batches  int64 `json:"batches"`  // batches acknowledged applied
	Events   int64 `json:"events"`   // (function, slot) event pairs
	Requests int64 `json:"requests"` // HTTP requests

	Retries      int64 `json:"retries"`
	Degraded     int64 `json:"degraded"` // fixed-keepalive fallback replies
	ShedQueue    int64 `json:"shed_queue"`
	ShedDecision int64 `json:"shed_decision"`
	Snapshots    int64 `json:"snapshots"`

	ElapsedMs     float64 `json:"elapsed_ms"`
	EventsPerSec  float64 `json:"events_per_sec"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
	LatencyP999MS float64 `json:"latency_p999_ms"`
	LatencyMaxMS  float64 `json:"latency_max_ms"`

	// StateHash is the daemon's policy state hash after the replay: the two
	// modes must agree on it, and two benchjson runs of the same workload
	// must report the same value (sim time is the slot stream, not the wall
	// clock, so ingest pacing cannot change it).
	StateHash string `json:"state_hash"`
}

// runServeBench measures the serving daemon end to end: nominal, then under
// forced decision-shedding, over the same 300-function flash-crowd window.
func runServeBench(seed int64) ([]ServeResult, error) {
	s := experiments.Settings{Functions: 300, Days: 3, TrainDays: 2, Seed: seed, SPES: core.DefaultConfig()}
	if err := s.ApplyScenario("flashcrowd"); err != nil {
		return nil, err
	}
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		return nil, err
	}

	var out []ServeResult
	for _, mode := range []string{"nominal", "overload"} {
		fmt.Fprintf(os.Stderr, "benchjson: serve %s (n=%d, flashcrowd)...\n", mode, s.Functions)
		r, err := runServePass(mode, s, train, simTr)
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", mode, err)
		}
		out = append(out, r)
	}
	if out[0].StateHash != out[1].StateHash {
		return nil, fmt.Errorf("serve: overload state %s != nominal %s — shedding touched policy state",
			out[1].StateHash, out[0].StateHash)
	}
	return out, nil
}

func runServePass(mode string, s experiments.Settings, train, simTr *trace.Trace) (ServeResult, error) {
	dir, err := os.MkdirTemp("", "benchserve-*")
	if err != nil {
		return ServeResult{}, err
	}
	defer os.RemoveAll(dir)

	cfg := serve.Config{
		Dir: dir, Policy: s.SPES, Training: train,
		RetrainEvery: 480, SnapshotEvery: 480,
	}
	if mode == "overload" {
		cfg.DecisionTimeout = time.Nanosecond
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return ServeResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeResult{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	c := &serve.Client{
		Base:  "http://" + ln.Addr().String(),
		Retry: retry.Policy{MaxAttempts: 5, BaseDelay: 200 * time.Microsecond, MaxDelay: 5 * time.Millisecond},
	}
	rep, err := serve.Replay(c, simTr, serve.LoadOptions{BatchSlots: 4})
	if err != nil {
		return ServeResult{}, err
	}

	// Degraded replies return before their batches finish applying; the
	// state hash is only comparable once the apply queue drains.
	deadline := time.Now().Add(30 * time.Second)
	for srv.MetricsSnapshot().AppliedBatches < rep.Slots {
		if time.Now().After(deadline) {
			return ServeResult{}, fmt.Errorf("apply queue never drained (%d/%d batches)",
				srv.MetricsSnapshot().AppliedBatches, rep.Slots)
		}
		time.Sleep(time.Millisecond)
	}
	hash, _, _, err := srv.StateHash()
	if err != nil {
		return ServeResult{}, err
	}
	m := srv.MetricsSnapshot()
	return ServeResult{
		Functions: s.Functions, Days: s.Days, TrainDays: s.TrainDays,
		Seed: s.Seed, Scenario: "flashcrowd", Mode: mode,
		Slots: rep.Slots, Batches: m.AppliedBatches, Events: rep.Events,
		Requests: rep.Requests, Retries: rep.Retries, Degraded: rep.Degraded,
		ShedQueue: m.ShedQueue, ShedDecision: m.ShedDecision, Snapshots: m.Snapshots,
		ElapsedMs: rep.ElapsedMS, EventsPerSec: rep.EventsPerSec,
		LatencyP50MS: rep.LatencyP50MS, LatencyP99MS: rep.LatencyP99MS,
		LatencyP999MS: rep.LatencyP999MS, LatencyMaxMS: rep.LatencyMaxMS,
		StateHash: fmt.Sprintf("%016x", hash),
	}, nil
}

// resultsHash fingerprints a pass's results for cross-run bit-identity
// comparison: FNV-64a over the JSON encoding of each Result with Overhead
// (wall clock) zeroed.
func resultsHash(results []*sim.Result) string {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, r := range results {
		c := *r
		c.Overhead = 0
		if err := enc.Encode(&c); err != nil {
			return ""
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// faultHook is benchjson's sim.ShardFaultHook: an optional fixed per-shard
// delay (stretches sweeps wide enough for CI to kill them mid-run), an
// optional single forced worker panic, and an optional deterministic
// injector behind both.
type faultHook struct {
	delay      time.Duration
	panicShard int
	panicked   atomic.Bool
	inj        *faultinject.Injector
}

func (h *faultHook) BeforeShard(shard, attempt int) {
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	if shard == h.panicShard && attempt == 1 && h.panicked.CompareAndSwap(false, true) {
		panic(fmt.Sprintf("benchjson: forced worker panic on shard %d", shard))
	}
	if h.inj != nil {
		h.inj.BeforeShard(shard, attempt)
	}
}

// cacheSweepOpts carries the fault-tolerance knobs of runCacheSweep.
type cacheSweepOpts struct {
	dir        string          // disk-backed entry directory ("" = in-memory only)
	stop       <-chan struct{} // closed on SIGINT/SIGTERM: drain in-flight shards, then return
	faultSeed  int64           // non-zero: run under faultinject.Default() with this seed
	shardDelay time.Duration   // artificial per-shard delay (kill-window widener)
	panicShard int             // >= 0: force one panic on this shard's first attempt
}

// runSweep executes the scale sweep in-process: per scale and shard count a
// materialized point, plus a streamed point for shard counts > 1. With
// capacity, each scale additionally runs the capacity-coupled baselines
// (FaaSCache, LCS) at every shard count through the lockstep arbitration
// engine, budgeted at the scale's SPES MaxLoaded. stop aborts between
// shards (SIGINT/SIGTERM).
func runSweep(scales, shardCounts []int, seed int64, capacity bool, stop <-chan struct{}) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, n := range scales {
		s := experiments.SparseSettings(n, seed)
		spesMaxLoaded := 0
		for _, shards := range shardCounts {
			fmt.Fprintf(os.Stderr, "benchjson: sweep n=%d shards=%d materialized...\n", n, shards)
			pt := SweepPoint{
				Functions: n, Days: s.Days, TrainDays: s.TrainDays,
				Seed: seed, Shards: shards, Mode: "materialized",
			}
			// The workload lives only inside the pass, so the next pass's
			// (and the streamed point's) baseline GC collects it.
			err := measurePoint(&pt, func(first bool) (*sim.Result, error) {
				genStart := time.Now()
				_, train, simTr, err := experiments.BuildWorkload(s)
				if err != nil {
					return nil, err
				}
				generateMs := msSince(genStart)
				simStart := time.Now()
				res, err := sim.Run(core.New(core.DefaultConfig()), train, simTr,
					sim.Options{Shards: shards, Stop: stop})
				if err == nil && first {
					pt.GenerateMs, pt.FullSimMs = generateMs, msSince(simStart)
				}
				return res, err
			})
			if err != nil {
				return nil, err
			}
			spesMaxLoaded = pt.MaxLoaded
			out = append(out, pt)

			if shards <= 1 {
				continue
			}
			fmt.Fprintf(os.Stderr, "benchjson: sweep n=%d shards=%d streamed...\n", n, shards)
			st := SweepPoint{
				Functions: n, Days: s.Days, TrainDays: s.TrainDays,
				Seed: seed, Shards: shards, Mode: "streamed",
			}
			src, err := experiments.StreamSource(s, shards)
			if err != nil {
				return nil, err
			}
			err = measurePoint(&st, func(first bool) (*sim.Result, error) {
				simStart := time.Now()
				res, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{Stop: stop})
				if err == nil && first {
					st.FullSimMs = msSince(simStart)
				}
				return res, err
			})
			if err != nil {
				return nil, err
			}
			if st.ColdStarts != pt.ColdStarts || st.WMT != pt.WMT || st.MaxLoaded != pt.MaxLoaded {
				return nil, fmt.Errorf("benchjson: streamed n=%d shards=%d diverged from materialized (cold %d/%d wmt %d/%d)",
					n, shards, st.ColdStarts, pt.ColdStarts, st.WMT, pt.WMT)
			}
			out = append(out, st)
		}
		if capacity {
			pts, err := runCapacityRows(s, n, spesMaxLoaded, shardCounts, seed, stop)
			if err != nil {
				return nil, err
			}
			out = append(out, pts...)
		}
	}
	return out, nil
}

// heapPasses is how many times measurePoint runs a sweep point.
const heapPasses = 3

// measurePoint runs pass heapPasses times, each under its own memwatch
// sampler, and records into pt the median sampled heap peak, the first
// pass's after-GC heap, and the first pass's results. Every pass must
// reproduce the first one's results: a point is deterministic per seed.
func measurePoint(pt *SweepPoint, pass func(first bool) (*sim.Result, error)) error {
	var peaks [heapPasses]uint64
	for i := range peaks {
		watch := memwatch.Watch()
		res, err := pass(i == 0)
		peak, after := watch.Finish()
		if err != nil {
			return err
		}
		peaks[i] = peak
		if i == 0 {
			pt.HeapAfterBytes = after
			pt.ColdStarts, pt.WMT, pt.MaxLoaded = res.TotalColdStarts, res.TotalWMT, res.MaxLoaded
		} else if res.TotalColdStarts != pt.ColdStarts || res.TotalWMT != pt.WMT || res.MaxLoaded != pt.MaxLoaded {
			return fmt.Errorf("benchjson: n=%d shards=%d %s pass %d diverged from pass 1 (cold %d/%d wmt %d/%d)",
				pt.Functions, pt.Shards, pt.Mode, i+1, res.TotalColdStarts, pt.ColdStarts, res.TotalWMT, pt.WMT)
		}
	}
	slices.Sort(peaks[:])
	pt.HeapPeakBytes = peaks[heapPasses/2]
	return nil
}

// runCapacityRows measures the capacity-coupled baselines at one sweep
// scale: FaaSCache and LCS, materialized, per shard count (shard counts > 1
// run the lockstep arbitration engine; all counts must report identical
// results — the sweep doubles as an equivalence check, like the
// materialized/streamed pair above). The warm-pool budget is the
// same-scale SPES point's MaxLoaded, the comparison convention of
// internal/experiments: every policy gets the memory SPES actually used.
// No cache is attached — capacity-coupled shard outcomes are not cacheable
// (sim.ErrCapacityCoupled) — and each point regenerates its own workload
// so generation residency stays attributed to the point that pays it.
func runCapacityRows(s experiments.Settings, n, spesMaxLoaded int, shardCounts []int, seed int64, stop <-chan struct{}) ([]SweepPoint, error) {
	pool := spesMaxLoaded
	if pool < 1 {
		pool = 1
	}
	var out []SweepPoint
	for _, pol := range []struct {
		name string
		mk   func() sim.Policy
	}{
		{"FaaSCache", func() sim.Policy { return baselines.NewFaaSCache(pool) }},
		{"LCS", func() sim.Policy { return baselines.NewLCS(pool) }},
	} {
		var first *SweepPoint
		for _, shards := range shardCounts {
			fmt.Fprintf(os.Stderr, "benchjson: sweep n=%d shards=%d %s (capacity=%d) materialized...\n", n, shards, pol.name, pool)
			pt := SweepPoint{
				Functions: n, Days: s.Days, TrainDays: s.TrainDays,
				Seed: seed, Shards: shards, Mode: "materialized",
				Policy: pol.name, Capacity: pool,
			}
			err := measurePoint(&pt, func(first bool) (*sim.Result, error) {
				genStart := time.Now()
				_, train, simTr, err := experiments.BuildWorkload(s)
				if err != nil {
					return nil, err
				}
				generateMs := msSince(genStart)
				simStart := time.Now()
				res, err := sim.Run(pol.mk(), train, simTr, sim.Options{Shards: shards, Stop: stop})
				if err == nil && first {
					pt.GenerateMs, pt.FullSimMs = generateMs, msSince(simStart)
				}
				return res, err
			})
			if err != nil {
				return nil, err
			}
			if first == nil {
				p := pt
				first = &p
			} else if pt.ColdStarts != first.ColdStarts || pt.WMT != first.WMT || pt.MaxLoaded != first.MaxLoaded {
				return nil, fmt.Errorf("benchjson: %s n=%d shards=%d diverged from shards=%d (cold %d/%d wmt %d/%d)",
					pol.name, n, shards, first.Shards, pt.ColdStarts, first.ColdStarts, pt.WMT, first.WMT)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// runMegaPoint measures one very-large-population streamed point — the
// million-function regime the event-driven cores and the simulator's
// idle-span batching exist for. It always streams (a materialized 1M-trace
// pair would dominate the heap figures) and applies a library scenario so
// the point exercises the non-stationary paths too. Off in the CI smoke
// sweep; the committed BENCH_<n>.json baselines carry it, and benchgate
// compares it by (functions, shards, mode, scenario) when both sides have
// it.
func runMegaPoint(scenario string, n, shards int, seed int64, stop <-chan struct{}) (SweepPoint, error) {
	s := experiments.SparseSettings(n, seed)
	if scenario != "" {
		if err := s.ApplyScenario(scenario); err != nil {
			return SweepPoint{}, err
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: mega point n=%d shards=%d scenario=%q streamed...\n", n, shards, scenario)
	pt := SweepPoint{
		Functions: n, Days: s.Days, TrainDays: s.TrainDays,
		Seed: seed, Shards: shards, Mode: "streamed", Scenario: scenario,
	}
	src, err := experiments.StreamSource(s, shards)
	if err != nil {
		return SweepPoint{}, err
	}
	watch := memwatch.Watch()
	start := time.Now()
	res, err := sim.RunStreamed(core.New(core.DefaultConfig()), src, sim.Options{Stop: stop})
	if err != nil {
		return SweepPoint{}, err
	}
	pt.FullSimMs = msSince(start)
	pt.HeapPeakBytes, pt.HeapAfterBytes = watch.Finish()
	pt.ColdStarts, pt.WMT, pt.MaxLoaded = res.TotalColdStarts, res.TotalWMT, res.MaxLoaded
	return pt, nil
}

// runCacheSweep measures the incremental sweep cache: a 5-point
// theta_prewarm sweep (the Figure 13a shape) cold, then warm, through one
// cache. With o.dir the sweep runs streamed with a disk-backed cache and
// adds a restart-simulating pass: a fresh in-memory cache over the same
// entry directory, so every shard outcome restores from disk. Every
// completed unit is a committed disk entry, so a killed run resumes — the
// rerun restores those from disk and re-simulates only the rest. o.faultSeed
// runs the whole thing under deterministic injected faults; any run that
// completes must still report the same results_hash as a clean run.
func runCacheSweep(scales []int, shards int, seed int64, o cacheSweepOpts) ([]CacheSweepResult, error) {
	thetas := []int{1, 2, 3, 5, 10}
	var out []CacheSweepResult
	for _, n := range scales {
		r, err := runCacheScale(n, thetas, shards, seed, o)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// runCacheScale runs one scale of the cache sweep.
func runCacheScale(n int, thetas []int, shards int, seed int64, o cacheSweepOpts) (CacheSweepResult, error) {
	s := experiments.SparseSettings(n, seed)

	var inj *faultinject.Injector
	var hook sim.ShardFaultHook
	if o.faultSeed != 0 {
		inj = faultinject.New(o.faultSeed, faultinject.Default())
	}
	if o.shardDelay > 0 || o.panicShard >= 0 || inj != nil {
		hook = &faultHook{delay: o.shardDelay, panicShard: o.panicShard, inj: inj}
	}

	var disk *sim.DiskCache
	newSweep := func(cache *sim.ShardCache) (*sim.Sweep, error) {
		if o.dir == "" {
			_, train, simTr, err := experiments.BuildWorkload(s)
			if err != nil {
				return nil, err
			}
			return sim.NewSweep(train, simTr, sim.Options{
				Shards: shards, Cache: cache, Stop: o.stop, FaultHook: hook})
		}
		src, err := experiments.StreamSource(s, shards)
		if err != nil {
			return nil, err
		}
		if cache == nil {
			cache = sim.NewShardCache()
		}
		cache.AttachDisk(disk)
		return sim.NewStreamedSweep(src, sim.Options{
			Cache: cache, Stop: o.stop, FaultHook: hook})
	}
	mode := "materialized"
	if o.dir != "" {
		mode = "streamed+disk"
		var err error
		if inj != nil {
			disk, err = sim.OpenDiskCacheFS(o.dir, inj.FS())
		} else {
			disk, err = sim.OpenDiskCache(o.dir)
		}
		if err != nil {
			return CacheSweepResult{}, err
		}
	}
	sweep, err := newSweep(nil)
	if err != nil {
		return CacheSweepResult{}, err
	}

	pass := func(sw *sim.Sweep) (float64, []*sim.Result, error) {
		results := make([]*sim.Result, 0, len(thetas))
		start := time.Now()
		for _, theta := range thetas {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			res, err := sw.Run(core.New(cfg))
			if err != nil {
				return 0, nil, err
			}
			results = append(results, res)
		}
		return msSince(start), results, nil
	}
	// Full-result equivalence (every metric and per-function field;
	// Overhead excluded as wall clock), not just headline scalars.
	matches := func(a, b []*sim.Result) bool {
		for i := range a {
			c, w := *a[i], *b[i]
			c.Overhead, w.Overhead = 0, 0
			if !reflect.DeepEqual(&c, &w) {
				return false
			}
		}
		return true
	}

	fmt.Fprintf(os.Stderr, "benchjson: cache sweep n=%d shards=%d %s cold...\n", n, shards, mode)
	coldMs, coldRes, err := pass(sweep)
	if err != nil {
		return CacheSweepResult{}, err
	}
	coldSt := sweep.Cache().Stats()
	if coldSt.DiskHits > 0 {
		// A reused -cacheDir serves the "cold" pass from disk; the
		// timing is still recorded, but flag it — cold_ms is then a
		// disk-warm time, not a simulation baseline.
		fmt.Fprintf(os.Stderr, "benchjson: warning: cold pass restored %d entries from -cacheDir; cold_ms is not a true cold baseline\n", coldSt.DiskHits)
	}
	fmt.Fprintf(os.Stderr, "benchjson: cache sweep n=%d shards=%d %s warm...\n", n, shards, mode)
	warmMs, warmRes, err := pass(sweep)
	if err != nil {
		return CacheSweepResult{}, err
	}
	match := matches(coldRes, warmRes)
	st := sweep.Cache().Stats()
	r := CacheSweepResult{
		Functions: n, Days: s.Days, TrainDays: s.TrainDays, Seed: seed,
		Shards: shards, Points: len(thetas), Mode: mode,
		ColdMs: coldMs, WarmMs: warmMs, ColdDiskHits: coldSt.DiskHits,
		Hits: st.Hits, Misses: st.Misses, ResultsMatch: match,
		ResultsHash: resultsHash(coldRes), FaultSeed: o.faultSeed,
	}
	if o.dir != "" {
		// Restart pass: nothing from this process's in-memory cache may
		// survive — a fresh cache and a fresh source over the same entry
		// directory stand in for a restarted process (workload
		// regeneration excluded: a warm streamed sweep never generates).
		fmt.Fprintf(os.Stderr, "benchjson: cache sweep n=%d shards=%d %s warm-after-restart...\n", n, shards, mode)
		restarted, err := newSweep(sim.NewShardCache())
		if err != nil {
			return CacheSweepResult{}, err
		}
		restartMs, restartRes, err := pass(restarted)
		if err != nil {
			return CacheSweepResult{}, err
		}
		r.WarmRestartMs = restartMs
		r.ResultsMatch = match && matches(coldRes, restartRes)
		rst := restarted.Cache().Stats()
		r.DiskHits = rst.DiskHits
		if rst.DiskHits != int64(len(thetas)*shards) {
			if inj == nil {
				return CacheSweepResult{}, fmt.Errorf("benchjson: restart pass restored %d entries, want %d (disk cache not hit)",
					rst.DiskHits, len(thetas)*shards)
			}
			// Under injected faults some restores legitimately fail (read
			// errors, bit flips, entries whose rename never landed) and
			// re-simulate through the miss path: fewer disk hits, same
			// results — which ResultsMatch still asserts.
			fmt.Fprintf(os.Stderr, "benchjson: faults: restart pass restored %d/%d entries; the rest re-simulated\n",
				rst.DiskHits, len(thetas)*shards)
		}
	}
	if inj != nil {
		r.FaultsInjected = inj.Total()
		fmt.Fprintf(os.Stderr, "benchjson: faults(seed=%d): %s\n", o.faultSeed, inj)
	}
	return r, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}

// parseInts parses a comma-separated int list.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad int %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\S+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	out := flag.String("out", "BENCH_1.json", "output file")
	bench := flag.String("bench", "Overhead|BenchmarkFullSimulation_SPES$", "benchmark regex passed to go test -bench")
	benchtime := flag.String("benchtime", "2s", "go test -benchtime value")
	sweep := flag.String("sweep", "", "comma-separated population sizes for the full-simulation scale sweep (empty: skip)")
	sweepShards := flag.String("sweepShards", "1,4", "comma-separated shard counts per sweep scale (counts > 1 also run streamed)")
	sweepSeed := flag.Int64("sweepSeed", 1, "sweep workload seed")
	sweepCapacity := flag.Bool("sweepCapacity", false, "add the capacity-coupled baselines (FaaSCache, LCS) to every -sweep scale and shard count, budgeted at the scale's SPES MaxLoaded; shard counts > 1 run the lockstep arbitration engine and must match shards=1 bit for bit")
	mega := flag.Bool("mega", false, "add one very-large-population streamed sweep point (see -megaFunctions/-megaShards/-megaScenario); off in the CI smoke sweep, on when regenerating a committed baseline")
	megaFunctions := flag.Int("megaFunctions", 1_000_000, "population size of the -mega point")
	megaShards := flag.Int("megaShards", 16, "shard count of the -mega point")
	megaScenario := flag.String("megaScenario", "flashcrowd", "library scenario applied to the -mega point (empty: stationary sparse)")
	cacheSweep := flag.String("cacheSweep", "", "comma-separated population sizes for the cold-vs-warm sweep-cache measurement (empty: skip)")
	cacheShards := flag.Int("cacheShards", 8, "shard count for the sweep-cache measurement")
	cacheDir := flag.String("cacheDir", "", "back the -cacheSweep cache with this on-disk entry directory: the sweep runs streamed, every completed unit is a committed entry there (kill + rerun resumes from them), and adds a warm-after-restart pass (fresh in-memory cache, same directory)")
	serveBench := flag.Bool("serve", false, "add the serving-mode benchmark: an in-process spes-serve daemon ingesting a flash-crowd replay over HTTP, nominal and under forced decision-shedding, recording decision-latency percentiles, events/sec, and shed counters")
	ingestCSV := flag.String("ingest", "", "add the real-trace ingestion benchmark: stream this Azure-format CSV into a temp columnar shard store (cold), reopen it (warm), and record the policy table simulated from the store (empty: skip)")
	ingestShards := flag.Int("ingestShards", 4, "store shard count for the -ingest benchmark")
	ingestTrainDays := flag.Int("ingestTrainDays", 3, "training days of the -ingest trace; the rest simulate")
	faults := flag.Int64("faults", 0, "non-zero: run the -cacheSweep under deterministic injected faults (disk I/O faults, worker panics, slow shards) with this schedule seed; a completed run must stay bit-identical to a clean one")
	shardDelayMs := flag.Int("shardDelayMs", 0, "artificial delay in ms before every shard simulation (stretches the -cacheSweep so a test can kill it mid-run)")
	panicShard := flag.Int("panicShard", -1, "force one worker panic on this shard's first attempt during the -cacheSweep (crash-isolation smoke)")
	flag.Parse()

	scales, err := parseInts(*sweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -sweep: %v\n", err)
		os.Exit(1)
	}
	shardCounts, err := parseInts(*sweepShards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -sweepShards: %v\n", err)
		os.Exit(1)
	}
	cacheScales, err := parseInts(*cacheSweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: -cacheSweep: %v\n", err)
		os.Exit(1)
	}
	if len(cacheScales) > 0 && *cacheShards < 1 {
		// Shard counts < 1 would run the sweep uncached (or trip the
		// restart assertion) while still recording a "cache" measurement.
		fmt.Fprintf(os.Stderr, "benchjson: -cacheShards must be >= 1, got %d\n", *cacheShards)
		os.Exit(1)
	}
	if *ingestCSV != "" && (*ingestShards < 2 || *ingestTrainDays < 1) {
		// The store exists for the sharded streamed engine; a 1-shard ingest
		// would record a table the equivalence suite never exercises.
		fmt.Fprintf(os.Stderr, "benchjson: -ingest needs -ingestShards >= 2 and -ingestTrainDays >= 1, got %d / %d\n", *ingestShards, *ingestTrainDays)
		os.Exit(1)
	}

	// SIGINT/SIGTERM close stop: the in-process sweeps drain their in-flight
	// shards (every completed shard is cached, and with -cacheDir on disk)
	// and the process exits cleanly — rerunning with the same flags resumes.
	// A second signal kills the old-fashioned way.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintf(os.Stderr, "benchjson: signal received; draining in-flight shards...\n")
		close(stop)
		signal.Stop(sigc)
	}()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "."}
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n%s\n", err, stdout.String())
		os.Exit(1)
	}

	snap := Snapshot{
		Generated: time.Now().UTC(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		MaxProcs:  runtime.GOMAXPROCS(0),
		Bench:     *bench,
		Benchtime: *benchtime,
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			snap.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		snap.Benchmarks = append(snap.Benchmarks, b)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no benchmark lines parsed from:\n%s\n", stdout.String())
		os.Exit(1)
	}

	// A drained interruption is a clean exit, reported with the
	// conventional 130; with -cacheDir the completed shards are committed
	// entries, so a rerun resumes from them.
	fail := func(what string, err error) {
		if errors.Is(err, sim.ErrInterrupted) {
			fmt.Fprintf(os.Stderr, "benchjson: %s interrupted; with -cacheDir, completed shards are on disk — rerun with the same flags to resume\n", what)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", what, err)
		os.Exit(1)
	}
	if len(scales) > 0 {
		snap.Sweep, err = runSweep(scales, shardCounts, *sweepSeed, *sweepCapacity, stop)
		if err != nil {
			fail("sweep", err)
		}
	}
	if *mega {
		pt, err := runMegaPoint(*megaScenario, *megaFunctions, *megaShards, *sweepSeed, stop)
		if err != nil {
			fail("mega point", err)
		}
		snap.Sweep = append(snap.Sweep, pt)
	}
	if *serveBench {
		snap.Serve, err = runServeBench(*sweepSeed)
		if err != nil {
			fail("serve benchmark", err)
		}
	}
	if *ingestCSV != "" {
		snap.Ingest, err = runIngestBench(*ingestCSV, *ingestShards, *ingestTrainDays)
		if err != nil {
			fail("ingest benchmark", err)
		}
	}
	if len(cacheScales) > 0 {
		snap.CacheSweep, err = runCacheSweep(cacheScales, *cacheShards, *sweepSeed, cacheSweepOpts{
			dir:        *cacheDir,
			stop:       stop,
			faultSeed:  *faults,
			shardDelay: time.Duration(*shardDelayMs) * time.Millisecond,
			panicShard: *panicShard,
		})
		if err != nil {
			fail("cache sweep", err)
		}
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))
}
