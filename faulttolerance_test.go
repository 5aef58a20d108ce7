// Kill-and-resume proof: a sweep process SIGKILLed mid-run leaves a disk
// cache from which a rerun with the same flags completes bit-identical to a
// never-interrupted run, restoring every unit the dead process committed
// and re-simulating only the rest. The sweep runs in a child process
// (re-exec of this test binary) so the kill is a real SIGKILL — no
// deferred cleanup, no flush on the way out.
package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// delayHook stretches every shard so the parent has a wide window to kill
// the child mid-sweep.
type delayHook time.Duration

func (d delayHook) BeforeShard(int, int) { time.Sleep(time.Duration(d)) }

const (
	ftDirEnv   = "REPRO_FAULTTOL_DIR"
	ftDelayEnv = "REPRO_FAULTTOL_DELAY_MS"
	ftOutEnv   = "REPRO_FAULTTOL_OUT"
)

// TestFaultToleranceHelperProcess is not a test of its own: it is the
// child body for TestKillAndResumeBitIdentical, selected via -test.run
// and parameterized by environment. Without the env it skips.
func TestFaultToleranceHelperProcess(t *testing.T) {
	dir := os.Getenv(ftDirEnv)
	if dir == "" {
		t.Skip("helper process for TestKillAndResumeBitIdentical")
	}
	delayMs, _ := strconv.Atoi(os.Getenv(ftDelayEnv))

	_, train, simTr, err := experiments.BuildWorkload(experiments.SparseSettings(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := sim.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache := sim.NewShardCache()
	cache.AttachDisk(disk)
	var hook sim.ShardFaultHook
	if delayMs > 0 {
		hook = delayHook(time.Duration(delayMs) * time.Millisecond)
	}
	sweep, err := sim.NewSweep(train, simTr, sim.Options{Shards: 6, Cache: cache, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, theta := range []int{1, 3, 10, 30} {
		cfg := core.DefaultConfig()
		cfg.Classify.ThetaPrewarm = theta
		res, err := sweep.Run(core.New(cfg))
		if err != nil {
			t.Fatalf("theta %d: %v", theta, err)
		}
		c := *res
		c.Overhead = 0
		if err := enc.Encode(&c); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	line := fmt.Sprintf("%016x %d\n", h.Sum64(), st.DiskHits)
	if err := os.WriteFile(os.Getenv(ftOutEnv), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
}

// runHelper re-execs this test binary as the sweep child and parses its
// report: results hash and disk hits.
func runHelper(t *testing.T, dir string, delayMs int) (hash string, diskHits int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "report")
	cmd := exec.Command(exe, "-test.run=TestFaultToleranceHelperProcess$")
	cmd.Env = append(os.Environ(),
		ftDirEnv+"="+dir,
		ftDelayEnv+"="+strconv.Itoa(delayMs),
		ftOutEnv+"="+out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, b)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("helper wrote no report: %v", err)
	}
	f := strings.Fields(string(b))
	if len(f) != 2 {
		t.Fatalf("malformed helper report %q", b)
	}
	diskHits, _ = strconv.Atoi(f[1])
	return f[0], diskHits
}

// committedEntries counts the disk cache entries renamed into place in dir
// (temp files of in-flight writes do not match).
func committedEntries(t *testing.T, dir string) int {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "shard-*.sce"))
	if err != nil {
		t.Fatal(err)
	}
	return len(m)
}

func TestKillAndResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses; skipped in -short")
	}
	cleanHash, _ := runHelper(t, t.TempDir(), 0)

	// Start the same sweep slowed down, wait until it has committed at
	// least two entries, and SIGKILL it — no drain, no cleanup.
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	victim := exec.Command(exe, "-test.run=TestFaultToleranceHelperProcess$")
	victim.Env = append(os.Environ(),
		ftDirEnv+"="+dir,
		ftDelayEnv+"=300",
		ftOutEnv+"="+filepath.Join(dir, "never-written"))
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && committedEntries(t, dir) < 2 {
		time.Sleep(25 * time.Millisecond)
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait() // reap; a SIGKILLed child reports an error by design
	// Counted after the reap: entries are renamed into place atomically, so
	// every file present now is a whole entry the rerun must restore.
	committedAtKill := committedEntries(t, dir)
	if committedAtKill < 2 {
		t.Fatalf("victim committed %d entries within 30s; cannot stage a mid-run kill", committedAtKill)
	}

	// The rerun must restore every committed entry from disk and finish
	// bit-identical to the clean run.
	resumeHash, diskHits := runHelper(t, dir, 0)
	t.Logf("killed with %d committed entries; rerun restored %d from disk", committedAtKill, diskHits)
	if resumeHash != cleanHash {
		t.Errorf("resumed run hash %s != clean run hash %s — resume changed results", resumeHash, cleanHash)
	}
	if diskHits < committedAtKill {
		t.Errorf("resumed run restored %d entries from disk, want >= %d committed at kill time",
			diskHits, committedAtKill)
	}
}
