package baselines

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Capacity-sharded execution support (sim.CapacityPolicy). FaaSCache and
// LCS cannot run as independent per-shard instances — their global memory
// budget couples every function to every other — but their SCORES (GDSF
// priority, LRU recency) depend only on each function's own history, so
// they shard as local scorers under the engine's global eviction arbiter:
// the shard forms below tick without evicting and expose their loaded sets
// in eviction order; the arbiter pops the globally lowest (score, FuncID)
// victim until the pool fits the budget, and broadcasts the GDSF clock
// ratchet back (sim.ClockCoupled). Bit-equivalence to the unsharded forms
// holds because those evict in exactly the same (score, FuncID) total
// order — see the cacheHeap tie-break and the lruState list invariant.

// Capacity implements sim.CapacityPolicy.
func (p *FaaSCache) Capacity() int { return p.capacity }

// NewCapacityShard implements sim.CapacityPolicy.
func (p *FaaSCache) NewCapacityShard() sim.CapacityShard { return &faasCacheShard{} }

// faasCacheShard is the arbiter-driven form of FaaSCache: same scoring
// state, no capacity of its own. Train seeds without enforcing (the engine
// runs one global arbitration pass over the trained shards before the
// simulation starts) and Tick only observes.
type faasCacheShard struct {
	gdsf gdsfState
}

func (s *faasCacheShard) Name() string { return "FaaSCache" }

// Train implements sim.Policy: seed scores and load every trained function;
// the arbiter enforces the global budget.
func (s *faasCacheShard) Train(training *trace.Trace) { s.gdsf.seed(training) }

// Tick implements sim.Policy: score updates and admissions only.
func (s *faasCacheShard) Tick(t int, invs []trace.FuncCount) { s.gdsf.observe(invs) }

// PeekVictim implements sim.CapacityShard.
func (s *faasCacheShard) PeekVictim() (float64, trace.FuncID, bool) { return s.gdsf.peekMin() }

// EvictVictim implements sim.CapacityShard. No local clock ratchet — the
// arbiter ratchets globally and broadcasts via SetClock.
func (s *faasCacheShard) EvictVictim() { s.gdsf.evictMin() }

// SetClock implements sim.ClockCoupled.
func (s *faasCacheShard) SetClock(clock float64) { s.gdsf.clock = clock }

// NextWake implements sim.IdleSkipper (see FaaSCache.NextWake).
func (s *faasCacheShard) NextWake(after, limit int) (int, bool) { return -1, true }

// Loaded implements sim.Policy.
func (s *faasCacheShard) Loaded(f trace.FuncID) bool { return s.gdsf.set.has(f) }

// LoadedCount implements sim.Policy.
func (s *faasCacheShard) LoadedCount() int { return s.gdsf.set.count }

// TakeLoadDeltas implements sim.LoadDeltaTracker. Arbiter evictions land in
// the same delta log as Tick admissions, so the driver's slot accounting
// sees them as one slot's flips.
func (s *faasCacheShard) TakeLoadDeltas() []trace.FuncID { return s.gdsf.set.takeDeltas() }

// Capacity implements sim.CapacityPolicy.
func (p *LCS) Capacity() int { return p.capacity }

// NewCapacityShard implements sim.CapacityPolicy.
func (p *LCS) NewCapacityShard() sim.CapacityShard { return &lcsShard{} }

// lcsShard is the arbiter-driven form of LCS: recency tracking only, the
// budget lives in the arbiter. LCS shares no clock, so it is not
// ClockCoupled.
type lcsShard struct {
	lru lruState
}

func (s *lcsShard) Name() string { return "LCS" }

// Train implements sim.Policy: seed recency and load every trained
// function; the arbiter enforces the global budget.
func (s *lcsShard) Train(training *trace.Trace) { s.lru.seed(training) }

// Tick implements sim.Policy: recency updates and admissions only.
func (s *lcsShard) Tick(t int, invs []trace.FuncCount) { s.lru.observe(t, invs) }

// PeekVictim implements sim.CapacityShard.
func (s *lcsShard) PeekVictim() (float64, trace.FuncID, bool) { return s.lru.peekLRU() }

// EvictVictim implements sim.CapacityShard.
func (s *lcsShard) EvictVictim() { s.lru.evictLRU() }

// NextWake implements sim.IdleSkipper (see LCS.NextWake).
func (s *lcsShard) NextWake(after, limit int) (int, bool) { return -1, true }

// Loaded implements sim.Policy.
func (s *lcsShard) Loaded(f trace.FuncID) bool { return s.lru.set.has(f) }

// LoadedCount implements sim.Policy.
func (s *lcsShard) LoadedCount() int { return s.lru.set.count }

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (s *lcsShard) TakeLoadDeltas() []trace.FuncID { return s.lru.set.takeDeltas() }

// Shard-cache config hashing (sim.ConfigHasher). Capacity policies hash
// like every other policy so sweep tooling can fingerprint their configs —
// even though their SHARD outcomes are never cached (the capacity engine
// refuses an attached ShardCache; see sim.CapacityCacheError). The Engine
// string names the deterministic eviction-order rule, mirroring the
// engine-choice-in-hash rule of shard.go: this PR changed FaaSCache's
// eviction order among equal priorities (FuncID tie-break), and any entry
// or fingerprint minted under a different order rule must never vouch for
// this one.

// ConfigHash implements sim.ConfigHasher.
func (p *FaaSCache) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Capacity int
		Engine   string
	}{p.capacity, "gdsf/fid-tiebreak"})
}

// ConfigHash implements sim.ConfigHasher.
func (p *LCS) ConfigHash() uint64 {
	return sim.HashConfig(struct {
		Capacity int
		Engine   string
	}{p.capacity, "lru/fid-tiebreak"})
}
