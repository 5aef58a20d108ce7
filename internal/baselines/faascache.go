package baselines

import (
	"container/heap"
	"fmt"

	"repro/internal/trace"
)

// gdsfState is the engine-agnostic Greedy-Dual-Size-Frequency scoring core
// shared by the unsharded FaaSCache driver and its capacity shard
// (capacity.go): frequencies, priorities, the (priority, FuncID) min-heap,
// and the loaded set. It scores and admits but never decides WHEN to evict
// — the unsharded driver enforces its capacity after every Train/Tick, and
// the sharded engine's global arbiter pops victims across shards. The clock
// is likewise written from outside: the unsharded driver ratchets it per
// eviction, the arbiter broadcasts the globally ratcheted value.
type gdsfState struct {
	set   *loadedSet
	clock float64
	freq  []int64
	prio  []float64
	h     *cacheHeap
	index []int // heap index per function, -1 when not loaded
}

func (s *gdsfState) init(n int) {
	s.set = newLoadedSet(n)
	s.clock = 0
	s.freq = make([]int64, n)
	s.prio = make([]float64, n)
	s.index = make([]int, n)
	for i := range s.index {
		s.index[i] = -1
	}
	s.h = &cacheHeap{owner: s}
}

// seed initializes the state from training invocation counts: frequencies
// are the training totals and every function ever invoked starts loaded —
// the state the cache would be in had it run through the training window
// with unbounded memory. Capacity is enforced by the caller.
func (s *gdsfState) seed(training *trace.Trace) {
	s.init(training.NumFunctions())
	for fid, ser := range training.Series {
		total := ser.Total()
		if total == 0 {
			continue
		}
		s.freq[fid] = total
		s.prio[fid] = float64(total)
		s.set.add(trace.FuncID(fid))
		heap.Push(s.h, fid)
	}
}

// observe applies one slot's invocations: bump frequencies, recompute
// priorities against the current clock, admit newcomers. No evictions.
func (s *gdsfState) observe(invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		s.freq[f]++
		s.prio[f] = s.clock + float64(s.freq[f])
		if s.index[f] >= 0 {
			heap.Fix(s.h, s.index[f])
		} else {
			s.set.add(fc.Func)
			heap.Push(s.h, f)
		}
	}
}

// peekMin returns the current eviction candidate — minimum (priority,
// FuncID) over the loaded set — without evicting.
func (s *gdsfState) peekMin() (float64, trace.FuncID, bool) {
	if len(s.h.items) == 0 {
		return 0, 0, false
	}
	f := s.h.items[0]
	return s.prio[f], trace.FuncID(f), true
}

// evictMin unloads the candidate peekMin reported. The clock ratchet is the
// caller's job.
func (s *gdsfState) evictMin() {
	victim := heap.Pop(s.h).(int)
	s.set.remove(trace.FuncID(victim))
}

// FaaSCache implements the Greedy-Dual-Size-Frequency caching policy of
// Fuerst & Sharma (ASPLOS'21): keeping a function warm is treated as
// keeping an object cached. Every function stays loaded until memory
// pressure forces an eviction of the lowest-priority instance, with
// priority = clock + frequency * cost / size. Under the paper's simulation
// principles cost and size are uniform, so priority reduces to
// clock + frequency; the clock ratchets up to each evicted priority,
// ageing cold entries out. Equal priorities evict in ascending FuncID
// order — the deterministic total order the sharded arbiter replays
// globally (capacity.go), kept identical here so this unsharded form stays
// the bit-identical reference.
type FaaSCache struct {
	capacity int
	gdsf     gdsfState
}

// NewFaaSCache creates the policy with a memory capacity in instances. The
// SPES evaluation sets capacity to the maximum memory SPES itself used.
func NewFaaSCache(capacity int) *FaaSCache {
	if capacity <= 0 {
		panic(fmt.Sprintf("baselines: FaaSCache capacity must be positive, got %d", capacity))
	}
	return &FaaSCache{capacity: capacity}
}

// Name implements sim.Policy.
func (p *FaaSCache) Name() string { return "FaaSCache" }

// Train implements sim.Policy: training invocation counts seed the
// frequencies, and the cache starts the simulation holding the
// highest-priority functions up to capacity — the state it would be in had
// it run through the training window.
func (p *FaaSCache) Train(training *trace.Trace) {
	p.gdsf.seed(training)
	p.enforce()
}

// Tick implements sim.Policy.
func (p *FaaSCache) Tick(t int, invs []trace.FuncCount) {
	p.gdsf.observe(invs)
	p.enforce()
}

// enforce evicts lowest-(priority, FuncID) functions until the cache fits,
// ratcheting the GDSF clock to each evicted priority so future insertions
// outrank long-idle residents.
func (p *FaaSCache) enforce() {
	for p.gdsf.set.count > p.capacity {
		prio, _, _ := p.gdsf.peekMin()
		p.gdsf.evictMin()
		if prio > p.gdsf.clock {
			p.gdsf.clock = prio
		}
	}
}

// NextWake implements sim.IdleSkipper. FaaSCache has no timers: state only
// changes on invocations (an empty Tick cannot evict, because Train and Tick
// both leave the pool at or under capacity), so an invocation-free span never
// needs a wake-up.
func (p *FaaSCache) NextWake(after, limit int) (int, bool) { return -1, true }

// Loaded implements sim.Policy.
func (p *FaaSCache) Loaded(f trace.FuncID) bool { return p.gdsf.set.has(f) }

// LoadedCount implements sim.Policy.
func (p *FaaSCache) LoadedCount() int { return p.gdsf.set.count }

// cacheHeap is a min-heap over loaded functions ordered by (priority,
// FuncID). The FuncID tie-break makes the eviction order a deterministic
// total order — required for the sharded arbiter to reproduce it, and
// harmless unsharded (any tie-break satisfied GDSF before).
type cacheHeap struct {
	owner *gdsfState
	items []int
}

func (h *cacheHeap) Len() int { return len(h.items) }

func (h *cacheHeap) Less(i, j int) bool {
	fi, fj := h.items[i], h.items[j]
	if h.owner.prio[fi] != h.owner.prio[fj] {
		return h.owner.prio[fi] < h.owner.prio[fj]
	}
	return fi < fj
}

func (h *cacheHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.owner.index[h.items[i]] = i
	h.owner.index[h.items[j]] = j
}

func (h *cacheHeap) Push(x any) {
	f := x.(int)
	h.owner.index[f] = len(h.items)
	h.items = append(h.items, f)
}

func (h *cacheHeap) Pop() any {
	last := len(h.items) - 1
	f := h.items[last]
	h.items = h.items[:last]
	h.owner.index[f] = -1
	return f
}

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (p *FaaSCache) TakeLoadDeltas() []trace.FuncID { return p.gdsf.set.takeDeltas() }
