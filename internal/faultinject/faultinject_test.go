package faultinject_test

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultinject"
	"repro/internal/retry"
	"repro/internal/sim"
	"repro/internal/trace"
)

// aggressive rates: high enough that a 3-seed mini-sweep draws every fault
// class (the schedule is a pure hash, so the coverage below is
// deterministic, not probabilistic flake), low enough that retries and
// corrupt-is-a-miss keep every run completing.
func aggressive() faultinject.Config {
	return faultinject.Config{
		ReadErr:     400,
		BitFlip:     400,
		WriteErr:    400,
		ShortWrite:  400,
		RenameErr:   300,
		WorkerPanic: 500,
		SlowShard:   300,
		SlowDelay:   time.Millisecond,
	}
}

const shards = 4

var thetas = []int{1, 3, 10}

// miniSweep runs a small theta sweep (cold pass, then a restarted-process
// pass through a fresh in-memory cache over the same disk tier) and
// returns all results.
func miniSweep(t *testing.T, train, simTr *trace.Trace, disk *sim.DiskCache, hook sim.ShardFaultHook) []*sim.Result {
	t.Helper()
	var out []*sim.Result
	backoff := retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	for pass := 0; pass < 2; pass++ {
		cache := sim.NewShardCache()
		cache.AttachDisk(disk)
		sweep, err := sim.NewSweep(train, simTr, sim.Options{
			Shards: shards, Cache: cache, FaultHook: hook, Retry: backoff})
		if err != nil {
			t.Fatal(err)
		}
		for _, theta := range thetas {
			cfg := core.DefaultConfig()
			cfg.Classify.ThetaPrewarm = theta
			res, err := sweep.Run(core.New(cfg))
			if err != nil {
				t.Fatalf("pass %d theta %d: %v", pass, theta, err)
			}
			out = append(out, res)
		}
	}
	return out
}

// The harness's reason to exist: for every seed, a run under injected
// disk faults and worker crashes that completes must be bit-identical to
// the clean run — and across the seeds, every fault class must actually
// have fired.
func TestCompletedFaultedRunsBitIdentical(t *testing.T) {
	s := experiments.SparseSettings(120, 1)
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	cleanDisk, err := sim.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clean := miniSweep(t, train, simTr, cleanDisk, nil)

	union := make(map[string]int64)
	for seed := int64(1); seed <= 3; seed++ {
		inj := faultinject.New(seed, aggressive())
		disk, err := sim.OpenDiskCacheFS(t.TempDir(), inj.FS())
		if err != nil {
			t.Fatal(err)
		}
		faulted := miniSweep(t, train, simTr, disk, inj)
		for i := range clean {
			a, b := *clean[i], *faulted[i]
			a.Overhead, b.Overhead = 0, 0
			if !reflect.DeepEqual(&a, &b) {
				t.Errorf("seed %d result %d diverged under faults (%s)", seed, i, inj)
			}
		}
		if inj.Total() == 0 {
			t.Errorf("seed %d injected nothing — the harness is not exercising the fault surface", seed)
		}
		t.Logf("seed %d: %s", seed, inj)
		for class, n := range inj.Counts() {
			union[class] += n
		}
	}
	for _, class := range []string{"readerr", "bitflip", "writeerr", "shortwrite", "renameerr", "panic", "slow"} {
		if union[class] == 0 {
			t.Errorf("fault class %q never fired across 3 seeds — raise its rate or the workload size", class)
		}
	}
}

// Same seed, same operations ⇒ same schedule: fault decisions, corrupted
// bytes, and counts must reproduce exactly across injector instances.
func TestScheduleDeterministic(t *testing.T) {
	s := experiments.SparseSettings(120, 1)
	_, train, simTr, err := experiments.BuildWorkload(s)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]map[string]int64, 2)
	var results [2][]*sim.Result
	for run := 0; run < 2; run++ {
		inj := faultinject.New(99, aggressive())
		disk, err := sim.OpenDiskCacheFS(t.TempDir(), inj.FS())
		if err != nil {
			t.Fatal(err)
		}
		results[run] = miniSweep(t, train, simTr, disk, inj)
		counts[run] = inj.Counts()
	}
	if !reflect.DeepEqual(counts[0], counts[1]) {
		t.Errorf("same seed drew different schedules: %v vs %v", counts[0], counts[1])
	}
	for i := range results[0] {
		a, b := *results[0][i], *results[1][i]
		a.Overhead, b.Overhead = 0, 0
		if !reflect.DeepEqual(&a, &b) {
			t.Errorf("same seed produced different results at %d", i)
		}
	}
}

// Injected errors must classify as transient so the retry layers treat
// them as curable — including through wrapping.
func TestInjectedErrorsAreTransient(t *testing.T) {
	e := &faultinject.Error{Site: "readerr", Subject: "shard-xyz.sce", Seq: 3}
	if !sim.IsTransient(e) {
		t.Error("injected error not classified transient")
	}
	if sim.IsTransient(nil) {
		t.Error("nil classified transient")
	}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}
