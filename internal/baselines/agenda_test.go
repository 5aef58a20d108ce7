package baselines

import (
	"fmt"

	"repro/internal/sim"
)

// mapAgenda is the map-backed deadline agenda the timing-wheel engine
// (sched.Agenda) is checked against: every slot's actions live in a map
// entry keyed by the exact slot, and an action fires only if its owner's
// sequence is unchanged since scheduling.
type mapAgenda struct {
	bySlot map[int][]mapAgendaItem
	seq    []uint32 // current sequence per owner
}

type mapAgendaItem struct {
	owner int
	seq   uint32
	what  int
}

// newMapAgenda matches the policies' newAgenda seam; the map needs no span.
func newMapAgenda(owners, _ int) agendaEngine {
	return &mapAgenda{bySlot: make(map[int][]mapAgendaItem), seq: make([]uint32, owners)}
}

func (a *mapAgenda) Grow(owners int) {
	for len(a.seq) < owners {
		a.seq = append(a.seq, 0)
	}
}

func (a *mapAgenda) Bump(owner int) { a.seq[owner]++ }

func (a *mapAgenda) Schedule(_, slot, owner, what int) {
	a.bySlot[slot] = append(a.bySlot[slot], mapAgendaItem{owner: owner, seq: a.seq[owner], what: what})
}

func (a *mapAgenda) Drain(slot int, fn func(owner, what int)) {
	items, ok := a.bySlot[slot]
	if !ok {
		return
	}
	delete(a.bySlot, slot)
	for _, it := range items {
		if a.seq[it.owner] == it.seq {
			fn(it.owner, it.what)
		}
	}
}

// Next reports every slot as a possible wake-up (a false positive the
// sim.IdleSkipper contract allows), so the simulator ticks the oracle slot
// by slot and never batch-advances it.
func (a *mapAgenda) Next(after, limit int) int {
	if after+1 > limit {
		return -1
	}
	return after + 1
}

// withMapAgenda switches a deadline-based baseline onto the map-backed
// oracle. It must run before the policy's Train (or first Tick).
func withMapAgenda(p sim.Policy) sim.Policy {
	switch q := p.(type) {
	case *FixedKeepAlive:
		q.newAgenda = newMapAgenda
	case *Hybrid:
		q.newAgenda = newMapAgenda
	case *Defuse:
		q.newAgenda = newMapAgenda
	default:
		panic(fmt.Sprintf("baselines: %T has no deadline agenda", p))
	}
	return p
}
