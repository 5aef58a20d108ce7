package baselines

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// lruState is the engine-agnostic recency core shared by the unsharded LCS
// driver and its capacity shard (capacity.go): last-invocation slots, the
// intrusive LRU list, and the loaded set. Like gdsfState it scores and
// admits but never decides WHEN to evict. An invariant both engines lean
// on: the list is always sorted by (last, FuncID) — Train touches in that
// sorted order and Tick touches each slot's invocations FuncID-ascending
// with equal last — so the head IS the minimum of that total order, and a
// cross-shard merge on the same key reproduces the global LRU order.
type lruState struct {
	set  *loadedSet
	last []int

	// prev/next implement an intrusive doubly linked LRU list over
	// function IDs; -1 terminates.
	prev, next []int
	head, tail int
}

func (s *lruState) init(n int) {
	s.set = newLoadedSet(n)
	s.last = make([]int, n)
	s.prev = make([]int, n)
	s.next = make([]int, n)
	for i := 0; i < n; i++ {
		s.last[i] = -1
		s.prev[i] = -1
		s.next[i] = -1
	}
	s.head, s.tail = -1, -1
}

// seed loads every function invoked during training, in LRU order (training
// recency rebased to negative slots, ties FuncID-ascending). Capacity is
// enforced by the caller.
func (s *lruState) seed(training *trace.Trace) {
	s.init(training.NumFunctions())
	type recency struct{ fid, last int }
	var seen []recency
	for fid, ser := range training.Series {
		if last := ser.LastSlot(); last >= 0 {
			seen = append(seen, recency{fid: fid, last: int(last) - training.Slots})
		}
	}
	slices.SortFunc(seen, func(a, b recency) int {
		if a.last != b.last {
			return a.last - b.last
		}
		return a.fid - b.fid // deterministic LRU order for same-slot ties
	})
	for _, r := range seen {
		s.last[r.fid] = r.last
		s.set.add(trace.FuncID(r.fid))
		s.touch(r.fid)
	}
}

// detach removes f from the LRU list.
func (s *lruState) detach(f int) {
	if s.prev[f] >= 0 {
		s.next[s.prev[f]] = s.next[f]
	} else if s.head == f {
		s.head = s.next[f]
	}
	if s.next[f] >= 0 {
		s.prev[s.next[f]] = s.prev[f]
	} else if s.tail == f {
		s.tail = s.prev[f]
	}
	s.prev[f], s.next[f] = -1, -1
}

// touch moves f to the most-recently-used end (tail).
func (s *lruState) touch(f int) {
	s.detach(f)
	if s.tail < 0 {
		s.head, s.tail = f, f
		return
	}
	s.prev[f] = s.tail
	s.next[s.tail] = f
	s.tail = f
}

// observe applies one slot's invocations: refresh recency and admit
// newcomers. No evictions.
func (s *lruState) observe(t int, invs []trace.FuncCount) {
	for _, fc := range invs {
		f := int(fc.Func)
		s.last[f] = t
		s.set.add(fc.Func)
		s.touch(f)
	}
}

// peekLRU returns the current eviction candidate — the list head, i.e. the
// minimum (last, FuncID) over the warm pool — without evicting.
func (s *lruState) peekLRU() (float64, trace.FuncID, bool) {
	if s.head < 0 {
		return 0, 0, false
	}
	return float64(s.last[s.head]), trace.FuncID(s.head), true
}

// evictLRU recycles the candidate peekLRU reported.
func (s *lruState) evictLRU() {
	victim := s.head
	s.detach(victim)
	s.set.remove(trace.FuncID(victim))
}

// LCS implements the "least-recently-used warm container" policy of Sethi
// et al. (ICDCN'23): every invoked function stays warm; when the warm pool
// exceeds its capacity, the least recently used container is recycled. The
// SPES paper cites LCS as related work; it is included here as an extra
// comparison point.
type LCS struct {
	capacity int
	lru      lruState
}

// NewLCS creates the policy with a warm-pool capacity in instances.
func NewLCS(capacity int) *LCS {
	if capacity <= 0 {
		panic(fmt.Sprintf("baselines: LCS capacity must be positive, got %d", capacity))
	}
	return &LCS{capacity: capacity}
}

// Name implements sim.Policy.
func (p *LCS) Name() string { return "LCS" }

// Train implements sim.Policy: the warm pool starts the simulation holding
// the most recently invoked training functions, up to capacity.
func (p *LCS) Train(training *trace.Trace) {
	p.lru.seed(training)
	p.enforce()
}

// Tick implements sim.Policy.
func (p *LCS) Tick(t int, invs []trace.FuncCount) {
	p.lru.observe(t, invs)
	p.enforce()
}

// enforce recycles least-recently-used containers until the pool fits.
func (p *LCS) enforce() {
	for p.lru.set.count > p.capacity && p.lru.head >= 0 {
		p.lru.evictLRU()
	}
}

// NextWake implements sim.IdleSkipper. LCS has no timers: the warm pool only
// changes on invocations (an empty Tick cannot recycle, because Train and
// Tick both leave the pool at or under capacity), so an invocation-free span
// never needs a wake-up.
func (p *LCS) NextWake(after, limit int) (int, bool) { return -1, true }

// Loaded implements sim.Policy.
func (p *LCS) Loaded(f trace.FuncID) bool { return p.lru.set.has(f) }

// LoadedCount implements sim.Policy.
func (p *LCS) LoadedCount() int { return p.lru.set.count }

// TakeLoadDeltas implements sim.LoadDeltaTracker.
func (p *LCS) TakeLoadDeltas() []trace.FuncID { return p.lru.set.takeDeltas() }
