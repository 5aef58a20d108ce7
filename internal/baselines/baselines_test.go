package baselines

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// newTestHist builds a 1-minute-bin histogram for unit tests.
func newTestHist(bins int) *stats.Histogram { return stats.NewHistogram(0, 1, bins) }

// Compile-time interface checks.
var (
	_ sim.Policy = (*FixedKeepAlive)(nil)
	_ sim.Policy = (*Hybrid)(nil)
	_ sim.Policy = (*Defuse)(nil)
	_ sim.Policy = (*FaaSCache)(nil)
	_ sim.Policy = (*LCS)(nil)
)

func TestLoadedSet(t *testing.T) {
	s := newLoadedSet(3)
	if s.has(0) || s.count != 0 {
		t.Fatal("fresh set not empty")
	}
	s.add(1)
	s.add(1) // idempotent
	if !s.has(1) || s.count != 1 {
		t.Errorf("after add: has=%v count=%d", s.has(1), s.count)
	}
	s.remove(1)
	s.remove(1) // idempotent
	if s.has(1) || s.count != 0 {
		t.Errorf("after remove: has=%v count=%d", s.has(1), s.count)
	}
}

// TestAgenda pins the firing semantics both agenda engines share: a bumped
// owner's pending actions are dropped, and a drained slot stays drained.
func TestAgenda(t *testing.T) {
	for name, mk := range map[string]func(owners, span int) agendaEngine{
		"wheel": nil,
		"map":   newMapAgenda,
	} {
		a := buildAgenda(mk, 2, 16)
		fired := map[[2]int]int{}
		a.Schedule(-1, 5, 0, 7)
		a.Schedule(-1, 5, 1, 8)
		a.Bump(1) // invalidates owner 1's action
		a.Drain(5, func(owner, what int) { fired[[2]int{owner, what}]++ })
		if fired[[2]int{0, 7}] != 1 {
			t.Errorf("%s: valid action did not fire", name)
		}
		if len(fired) != 1 {
			t.Errorf("%s: stale action fired: %v", name, fired)
		}
		// Draining twice is a no-op.
		a.Drain(5, func(owner, what int) { t.Errorf("%s: double drain", name) })
		// Draining an empty slot is a no-op.
		a.Drain(99, func(owner, what int) { t.Errorf("%s: phantom drain", name) })
	}
}
