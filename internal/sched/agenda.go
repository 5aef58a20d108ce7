package sched

// Agenda layers per-owner lazy invalidation over a Wheel: each owner has a
// generation counter, an action fires only if the owner's generation still
// matches the one it was scheduled with, and Bump cancels every outstanding
// action of an owner in O(1). It has the firing semantics of a map keyed by
// exact slot (the baselines' tests keep such a map as its oracle), with
// ring-bucket storage reuse instead of per-slot map churn.
type Agenda struct {
	w   *Wheel
	seq []uint32 // current generation per owner
}

// NewAgenda creates an agenda for owners owners whose wheel ring spans at
// least span slots.
func NewAgenda(owners, span int) *Agenda {
	return &Agenda{w: NewWheel(span), seq: make([]uint32, owners)}
}

// Grow extends the owner space to at least owners entries (for policies that
// discover their population lazily). Existing generations are preserved.
func (a *Agenda) Grow(owners int) {
	for len(a.seq) < owners {
		a.seq = append(a.seq, 0)
	}
}

// Owners returns the current owner-space size.
func (a *Agenda) Owners() int { return len(a.seq) }

// Bump invalidates all outstanding actions of an owner.
func (a *Agenda) Bump(owner int) { a.seq[owner]++ }

// Schedule enqueues action what for the owner at the given slot (strictly
// greater than current, the slot most recently drained or -1 initially),
// bound to the owner's current generation.
func (a *Agenda) Schedule(current, slot, owner, what int) {
	a.w.Schedule(current, slot, Event{
		Owner: int32(owner),
		Slot:  int32(slot),
		Seq:   a.seq[owner],
		What:  uint8(what),
	})
}

// Drain invokes fn for every still-valid action scheduled at slot and
// recycles the slot's storage. The generation check is done here so fn only
// sees live actions. Ring events drain before overflow events; because every
// owner has at most one live action per slot (schedulers bump before they
// schedule), the relative order of different owners' actions is the only
// thing that can differ from an exact-slot map's insertion order, and
// distinct owners' actions commute.
func (a *Agenda) Drain(slot int, fn func(owner, what int)) {
	// Inlined Wheel.Drain so the per-event generation filter does not cost a
	// closure allocation per call.
	w := a.w
	idx := slot & w.mask
	if items := w.ring[idx]; len(items) > 0 {
		w.ring[idx] = items[:0]
		kept := 0
		for i := range items {
			ev := items[i]
			if d := int(ev.Slot) - slot; d > 0 && d <= w.mask+1 {
				items[kept] = ev
				kept++
				continue
			}
			w.ringLive--
			if int(ev.Slot) == slot && a.seq[ev.Owner] == ev.Seq {
				fn(int(ev.Owner), int(ev.What))
			}
		}
		w.ring[idx] = items[:kept]
	}
	if items, ok := w.overflow[slot]; ok {
		delete(w.overflow, slot)
		if !w.ovMinStale && slot == w.ovMin {
			w.ovMinStale = true
		}
		for _, ev := range items {
			if a.seq[ev.Owner] == ev.Seq {
				fn(int(ev.Owner), int(ev.What))
			}
		}
	}
}

// Next returns the earliest slot in (after, limit] holding at least one
// scheduled action (possibly an already-abandoned one), or -1 when there is
// none. See Wheel.NextOccupied.
func (a *Agenda) Next(after, limit int) int { return a.w.NextOccupied(after, limit) }
